// CLI error contract (ISSUE 3 satellite): clrtool must reject unknown
// subcommands, unknown options, malformed numerics and malformed JSON with a
// non-zero exit code and a one-line actionable message — never a silent
// fallback to defaults and never a crash. The tests drive the real binary
// (CLRTOOL_PATH is injected by the build).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>

namespace {

std::pair<int, std::string> run_tool(const std::string& args) {
  const std::string cmd = std::string(CLRTOOL_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) output += buffer.data();
  const int status = pclose(pipe);
  const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return {exit_code, output};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file: " << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// `text` without the lines containing any of `needles` (wall-clock fields).
std::string drop_lines(const std::string& text, std::initializer_list<const char*> needles) {
  std::string out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = std::min(text.find('\n', start), text.size() - 1) + 1;
    const std::string line = text.substr(start, end - start);
    bool keep = true;
    for (const char* needle : needles) keep = keep && line.find(needle) == std::string::npos;
    if (keep) out += line;
    start = end;
  }
  return out;
}

/// The small database most tests run on: explored for --tasks 6 --seed 5.
std::string explore_small_db(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  const auto [code, out] = run_tool("explore --tasks 6 --seed 5 --pop 8 --gens 3 --db-out " + path);
  EXPECT_EQ(code, 0) << out;
  return path;
}

TEST(CliErrors, NoArgumentsPrintsUsageAndFails) {
  const auto [code, out] = run_tool("");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST(CliErrors, UnknownSubcommandFails) {
  const auto [code, out] = run_tool("frobnicate");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(CliErrors, UnknownOptionFailsInsteadOfSilentlyDefaulting) {
  const auto [code, out] = run_tool("generate --task 5");  // typo for --tasks
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("unknown option --task"), std::string::npos);
}

TEST(CliErrors, MalformedIntegerIsRejectedWithTheOffendingValue) {
  const auto [code, out] = run_tool("generate --tasks abc");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("option --tasks"), std::string::npos);
  EXPECT_NE(out.find("'abc'"), std::string::npos);
}

TEST(CliErrors, TrailingGarbageInNumberIsRejected) {
  const auto [code, out] = run_tool("generate --tasks 5x");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("option --tasks"), std::string::npos);
}

TEST(CliErrors, OutOfRangeNumericIsRejected) {
  const auto [code, out] = run_tool("generate --tasks 0");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--tasks"), std::string::npos);
  EXPECT_NE(out.find(">= 1"), std::string::npos);
}

TEST(CliErrors, NonOptionArgumentIsRejected) {
  const auto [code, out] = run_tool("generate tasks");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("expected an --option"), std::string::npos);
}

TEST(CliErrors, MalformedDatabaseJsonFails) {
  const std::string path = ::testing::TempDir() + "clrtool_bad_db.json";
  std::ofstream(path) << "this is { not valid json";
  const auto [code, out] = run_tool("inspect --db " + path);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("clrtool:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliErrors, MissingDatabaseFileFails) {
  const auto [code, out] = run_tool("inspect --db /nonexistent/definitely_missing.json");
  EXPECT_NE(code, 0);
  EXPECT_FALSE(out.empty());
}

TEST(CliErrors, SimulateRejectsUnknownPolicy) {
  const auto [code, out] = run_tool("simulate --db /tmp/whatever.json --policy wishful");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("unknown policy 'wishful'"), std::string::npos);
}

TEST(CliErrors, SimulateRejectsNegativeFaultRate) {
  // Option-layer validation fires before any file I/O for malformed reals.
  const auto [code, out] = run_tool("simulate --db /tmp/whatever.json --fault-rate nope");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("option --fault-rate"), std::string::npos);
}

TEST(CliHappyPath, GenerateSucceeds) {
  const auto [code, out] = run_tool("generate --tasks 5 --seed 3");
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("generated 5-task application"), std::string::npos);
}

TEST(CliTrace, UnknownCategoryIsRejected) {
  const auto [code, out] =
      run_tool("simulate --tasks 5 --trace /tmp/t.json --trace-categories dse,bogus");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("option --trace-categories"), std::string::npos);
  EXPECT_NE(out.find("'bogus'"), std::string::npos);
}

TEST(CliTrace, CategoriesWithoutTraceIsRejected) {
  const auto [code, out] = run_tool("simulate --tasks 5 --trace-categories dse");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--trace-categories requires --trace"), std::string::npos);
}

TEST(CliTrace, SimulateWritesAChromeTraceWithSummary) {
  // The one-shot acceptance path: no --db, so the design flow runs inline and
  // the trace covers DSE + runner + runtime in a single timeline.
  const std::string path = ::testing::TempDir() + "clrtool_trace.json";
  const auto [code, out] = run_tool(
      "simulate --tasks 6 --seed 3 --pop 8 --gens 3 --cycles 2e4 --replications 2 "
      "--jobs 2 --fault-rate 2e-4 --trace " +
      path);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("trace summary"), std::string::npos);
  EXPECT_NE(out.find("written to"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // DSE generation spans, runner cell spans and runtime QoS events all
  // present in one file — the tentpole's acceptance criterion.
  EXPECT_NE(text.find("\"nsga2.generation\""), std::string::npos);
  EXPECT_NE(text.find("\"exp.cell\""), std::string::npos);
  EXPECT_NE(text.find("\"rt.qos_event\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTrace, CategoriesFilterTheTimeline) {
  const std::string path = ::testing::TempDir() + "clrtool_trace_filtered.json";
  const auto [code, out] = run_tool(
      "simulate --tasks 6 --seed 3 --pop 8 --gens 3 --cycles 1e4 "
      "--trace " + path + " --trace-categories runtime");
  EXPECT_EQ(code, 0) << out;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"rt.qos_event\""), std::string::npos);
  EXPECT_EQ(text.find("\"nsga2.generation\""), std::string::npos);  // dse filtered out
  EXPECT_EQ(text.find("\"exp.cell\""), std::string::npos);          // exp filtered out
  std::remove(path.c_str());
}

TEST(CliSnapshot, ExploreWritesClrdbThatSimulateAndInspectConsume) {
  // End-to-end .clrdb flow: explore persists the binary snapshot (with the
  // DrcMatrix), simulate/inspect load it, and the simulate output is
  // byte-identical to the JSON-database path.
  const std::string clrdb = ::testing::TempDir() + "clrtool_db.clrdb";
  const std::string json = ::testing::TempDir() + "clrtool_db.json";
  const std::string common = "--tasks 6 --seed 5 --pop 8 --gens 3 --db-out ";
  ASSERT_EQ(run_tool("explore " + common + clrdb).first, 0);
  ASSERT_EQ(run_tool("explore " + common + json).first, 0);

  const auto [icode, iout] = run_tool("inspect --db " + clrdb);
  EXPECT_EQ(icode, 0) << iout;
  EXPECT_NE(iout.find("stored design points"), std::string::npos);

  const std::string sim = "simulate --tasks 6 --seed 5 --cycles 5e3 --db ";
  const auto [acode, aout] = run_tool(sim + clrdb);
  const auto [bcode, bout] = run_tool(sim + json);
  EXPECT_EQ(acode, 0) << aout;
  EXPECT_EQ(bcode, 0) << bout;
  EXPECT_EQ(aout, bout);

  std::remove(clrdb.c_str());
  std::remove(json.c_str());
}

TEST(CliSnapshot, CorruptedClrdbFailsWithTypedMessage) {
  const std::string good_path = ::testing::TempDir() + "clrtool_corrupt.clrdb";
  ASSERT_EQ(run_tool("explore --tasks 6 --seed 5 --pop 8 --gens 3 --db-out " + good_path).first,
            0);
  std::ifstream in(good_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  std::ofstream(good_path, std::ios::binary | std::ios::trunc).write(bytes.data(),
                                                                     bytes.size());
  const auto [code, out] =
      run_tool("simulate --tasks 6 --seed 5 --cycles 5e3 --db " + good_path);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("clrtool: snapshot: " + good_path + ": "), std::string::npos) << out;
  std::remove(good_path.c_str());
}

TEST(CliDesignDb, OutOfRangeJsonFieldIsRefusedNamingConfigFieldAndValue) {
  // A JSON ssw_param of 258 used to load as 2 and run the unedited database.
  const std::string path = explore_small_db("clrtool_db_ssw_param.json");
  const std::string bytes = read_file(path);
  const std::string field = "\"ssw_param\": ";
  const std::size_t at = bytes.find(field);
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = bytes.find_first_not_of("0123456789", at + field.size());
  for (const char* value : {"258", "300", "-1"}) {
    SCOPED_TRACE(value);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, at + field.size()) << value << bytes.substr(end);
    const auto [code, out] = run_tool("simulate --tasks 6 --seed 5 --cycles 3000 --db " + path);
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find(std::string("clrtool: CLR space config 0: ssw_param ") + value +
                       " (want 0..255)"),
              std::string::npos)
        << out;
  }
  std::remove(path.c_str());
}

// --- validate: Monte-Carlo validation of the stored points -------------------

TEST(CliValidate, OutputIsByteIdenticalToTheRecordedGolden) {
  // Fixed database, run count and simulation seed. The golden was recorded
  // before the validator ran on CompiledGraph; both the empirical columns
  // (every SEU draw) and the analytical ones must stay byte-identical.
  const std::string db = ::testing::TempDir() + "clrtool_validate.json";
  ASSERT_EQ(run_tool("explore --tasks 6 --seed 5 --pop 8 --gens 3 --db-out " + db).first, 0);
  const auto [code, out] =
      run_tool("validate --tasks 6 --seed 5 --db " + db + " --runs 200 --points 3 --sim-seed 7");
  EXPECT_EQ(code, 0);
  EXPECT_EQ(out,
            "fault-injection validation (200 runs/point)\n"
            "+---+----------+-------------+----------+-------------+----------+-------------+\n"
            "| # | S stored | S empirical | J stored | J empirical | F stored | F empirical |\n"
            "+---+----------+-------------+----------+-------------+----------+-------------+\n"
            "| 0 | 116.97   | 116.75      | 369.22   | 368.67      | 0.99822  | 0.99500     |\n"
            "| 1 | 107.51   | 107.59      | 178.52   | 179.42      | 0.99674  | 0.99231     |\n"
            "| 2 | 104.36   | 103.76      | 215.98   | 215.17      | 0.99819  | 0.99687     |\n"
            "+---+----------+-------------+----------+-------------+----------+-------------+\n"
            "empirical columns should track the stored/analytical ones closely; see\n"
            "tests/sim/test_fault_injection.cpp for the formal tolerances.\n");
  std::remove(db.c_str());
}

TEST(CliValidate, OutOfRangePeIdFailsWithTypedMessage) {
  // load_design_db does not bound-check PE ids, so validate must reject a
  // stored point naming PE 99 with the kernel's message before simulating.
  const std::string db = ::testing::TempDir() + "clrtool_validate_bad_pe.json";
  ASSERT_EQ(run_tool("explore --tasks 6 --seed 5 --pop 8 --gens 3 --db-out " + db).first, 0);
  std::ifstream in(db);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const std::size_t list = text.find("\"pe\": [");
  ASSERT_NE(list, std::string::npos);
  const std::size_t first = text.find_first_of("0123456789", list);
  const std::size_t last = text.find_first_not_of("0123456789", first);
  text.replace(first, last - first, "99");  // task 0 of the first point
  std::ofstream(db, std::ios::trunc) << text;

  const auto [code, out] = run_tool("validate --tasks 6 --seed 5 --db " + db + " --runs 10");
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("PE id out of range"), std::string::npos) << out;
  std::remove(db.c_str());
}

// --- Checkpoint/resume flags (DESIGN.md §5.12) -------------------------------

TEST(CliCheckpoint, ResumeRequiresCheckpoint) {
  const auto [code, out] = run_tool("explore --tasks 5 --resume");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--resume requires --checkpoint"), std::string::npos);
}

TEST(CliCheckpoint, CheckpointEveryRequiresCheckpoint) {
  const auto [code, out] = run_tool("explore --tasks 5 --checkpoint-every 2");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--checkpoint-every requires --checkpoint"), std::string::npos);
}

TEST(CliCheckpoint, SingleRunSimulateRejectsCheckpointFlags) {
  const auto [code, out] =
      run_tool("simulate --tasks 5 --checkpoint /tmp/x.clrdb");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--replications > 1"), std::string::npos);
}

TEST(CliCheckpoint, StepBudgetInterruptsWithExitCode3AndResumeFinishes) {
  const std::string ckpt = ::testing::TempDir() + "clrtool_ckpt.clrdb";
  const std::string db_full = ::testing::TempDir() + "clrtool_full.clrdb";
  const std::string db_resumed = ::testing::TempDir() + "clrtool_resumed.clrdb";
  std::remove((ckpt + ".a").c_str());
  std::remove((ckpt + ".b").c_str());
  const std::string common = "explore --tasks 6 --seed 5 --pop 8 --gens 4 ";

  // Uninterrupted reference.
  ASSERT_EQ(run_tool(common + "--db-out " + db_full).first, 0);

  // Interrupted leg: exit code 3, actionable message, no db-out yet.
  const auto [icode, iout] = run_tool(common + "--checkpoint " + ckpt +
                                      " --step-budget 3 --db-out " + db_resumed);
  EXPECT_EQ(icode, 3) << iout;
  EXPECT_NE(iout.find("interrupted"), std::string::npos);
  EXPECT_NE(iout.find("--resume to continue"), std::string::npos);
  EXPECT_EQ(std::ifstream(db_resumed).good(), false) << "partial run must not write --db-out";

  // Resume legs share the command line; loop until complete. (The larger
  // budget keeps the leg count small — the red stage spans many boundaries.)
  int code = 3;
  std::string out;
  for (int leg = 0; leg < 32 && code == 3; ++leg) {
    std::tie(code, out) = run_tool(common + "--checkpoint " + ckpt +
                                   " --resume --step-budget 60 --db-out " + db_resumed);
  }
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("resumed from checkpoint"), std::string::npos);

  // The resumed run's database is byte-identical to the uninterrupted one.
  std::ifstream a(db_full, std::ios::binary), b(db_resumed, std::ios::binary);
  ASSERT_TRUE(a.good());
  ASSERT_TRUE(b.good());
  const std::string full_bytes((std::istreambuf_iterator<char>(a)),
                               std::istreambuf_iterator<char>());
  const std::string resumed_bytes((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(full_bytes, resumed_bytes);

  std::remove(db_full.c_str());
  std::remove(db_resumed.c_str());
  std::remove((ckpt + ".a").c_str());
  std::remove((ckpt + ".b").c_str());
}

TEST(CliCheckpoint, TimeBudgetRejectsNonPositive) {
  const auto [code, out] = run_tool("explore --tasks 5 --time-budget 0");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--time-budget"), std::string::npos);
}

// --- SIGPIPE / broken stdout hardening ---------------------------------------

TEST(CliBrokenPipe, TruncatedStdoutExitsCleanlyNotViaSignal) {
  // `clrtool ... | head -c 0` closes the read end immediately. The tool must
  // not die of SIGPIPE (exit 141): it either finishes (0) or reports the
  // write error (1).
  const std::string rcfile = ::testing::TempDir() + "clrtool_pipe_rc";
  const std::string cmd = std::string("{ ") + CLRTOOL_PATH +
                          " generate --tasks 5 --seed 3 2>/dev/null; echo $? > " + rcfile +
                          "; } | head -c 0";
  ASSERT_EQ(std::system(cmd.c_str()) != -1, true);
  std::ifstream in(rcfile);
  int rc = -1;
  in >> rc;
  EXPECT_TRUE(rc == 0 || rc == 1) << "exit code " << rc << " (141 would mean death by SIGPIPE)";
  std::remove(rcfile.c_str());
}

TEST(CliBrokenPipe, WriteFailureToFullDeviceIsReported) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "/dev/full not available";
  const std::string cmd =
      std::string(CLRTOOL_PATH) + " generate --tasks 5 --seed 3 > /dev/full 2>/tmp/clrtool_err";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0) << "a failed stdout write must not exit 0";
  std::ifstream err("/tmp/clrtool_err");
  const std::string text((std::istreambuf_iterator<char>(err)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("clrtool:"), std::string::npos) << text;
  std::remove("/tmp/clrtool_err");
}

// --- The option table: every value is typed and checked before any work ------

/// An option error: exit 1, a message naming the option, and none of the
/// output a started run prints first.
void expect_option_error(const std::string& args, const std::string& option) {
  const auto [code, out] = run_tool(args);
  EXPECT_EQ(code, 1) << args << "\n" << out;
  EXPECT_NE(out.find("option --" + option), std::string::npos) << args << "\n" << out;
  EXPECT_EQ(out.find("spec:"), std::string::npos) << args << "\n" << out;
  EXPECT_EQ(out.find("explored inline"), std::string::npos) << args << "\n" << out;
}

TEST(CliOptions, FlagGivenAValueIsRejected) {
  // `--prefetch 0` must not mean "prefetch on", nor `--csp no` "CSP mode".
  expect_option_error(
      "fleet --tasks 6 --seed 5 --pop 8 --gens 3 --devices 10 --cycles 500 --prefetch 0",
      "prefetch");
  expect_option_error("explore --tasks 6 --seed 5 --pop 8 --gens 3 --csp no", "csp");
}

TEST(CliOptions, MissingValueFailsBeforeAnyWork) {
  // A trailing --report/--db-out must fail up front, not after the whole run.
  expect_option_error("fleet --tasks 6 --seed 5 --pop 8 --gens 3 --devices 10 --report",
                      "report");
  expect_option_error("explore --tasks 6 --seed 5 --pop 8 --gens 3 --db-out", "db-out");
}

TEST(CliOptions, NegativeSimSeedIsRejectedOnValidateAsOnSimulate) {
  const std::string db = explore_small_db("clrtool_opt_seed.json");
  expect_option_error("validate --tasks 6 --seed 5 --db " + db + " --runs 10 --sim-seed -1",
                      "sim-seed");
  expect_option_error("simulate --tasks 6 --seed 5 --db " + db + " --sim-seed -1", "sim-seed");
  std::remove(db.c_str());
}

TEST(CliOptions, RepeatedOptionIsRejected) {
  expect_option_error("generate --tasks 5 --tasks 7", "tasks");
}

TEST(CliOptions, OptionErrorsExitOneAndSubcommandErrorsExitTwo) {
  EXPECT_EQ(run_tool("simulate --tasks 5 --policy wishful").first, 1);
  EXPECT_EQ(run_tool("validate --tasks 5").first, 1);
  EXPECT_EQ(run_tool("inspect").first, 1);
  EXPECT_EQ(run_tool("").first, 2);
  EXPECT_EQ(run_tool("frobnicate").first, 2);
}

// --- One design-database loader for simulate, fleet and validate -------------

/// A database explored for another application: exit 1 with one message
/// naming --db, --tasks and --seed, never numbers computed on the wrong app.
void expect_mismatch(const std::string& args, const std::string& app) {
  const auto [code, out] = run_tool(args);
  EXPECT_EQ(code, 1) << args << "\n" << out;
  EXPECT_NE(out.find("clrtool: --db "), std::string::npos) << out;
  EXPECT_NE(out.find("does not match the application of " + app), std::string::npos) << out;
  EXPECT_EQ(out.find("result"), std::string::npos) << out;
}

TEST(CliDesignDb, SimulateAndValidateRejectADatabaseOfAnotherSeed) {
  const std::string db = explore_small_db("clrtool_db_seed.json");
  expect_mismatch("simulate --tasks 6 --seed 6 --cycles 2000 --db " + db, "--tasks 6 --seed 6");
  expect_mismatch("validate --tasks 6 --seed 6 --runs 10 --db " + db, "--tasks 6 --seed 6");
  std::remove(db.c_str());
}

TEST(CliDesignDb, FleetWithoutTasksAndSeedFailsWithTypedMessage) {
  // The defaults (--tasks 20 --seed 1) are another application; the stored
  // DrcMatrix of a .clrdb must not hide that.
  for (const char* ext : {".json", ".clrdb"}) {
    const std::string db = explore_small_db(std::string("clrtool_db_defaults") + ext);
    expect_mismatch("fleet --devices 10 --cycles 500 --db " + db, "--tasks 20 --seed 1");
    std::remove(db.c_str());
  }
}

TEST(CliDesignDb, JsonDatabaseNamedClrdbLoadsByContent) {
  const std::string json = explore_small_db("clrtool_db_content.json");
  const std::string renamed = ::testing::TempDir() + "clrtool_db_content_json.clrdb";
  std::ofstream(renamed, std::ios::binary) << read_file(json);
  for (const std::string cmd :
       {"simulate --tasks 6 --seed 5 --cycles 2000 --db ",
        "fleet --tasks 6 --seed 5 --devices 40 --block 16 --cycles 1000 --jobs 1 --db "}) {
    const auto [jcode, jout] = run_tool(cmd + json);
    const auto [rcode, rout] = run_tool(cmd + renamed);
    EXPECT_EQ(jcode, 0) << jout;
    EXPECT_EQ(rcode, 0) << rout;
    EXPECT_EQ(drop_lines(rout, {"throughput:"}), drop_lines(jout, {"throughput:"}));
  }
  std::remove(json.c_str());
  std::remove(renamed.c_str());
}

TEST(CliDesignDb, ReplicatedSimulateReusesTheMatrixAClrdbStores) {
  // The runner builds a DrcMatrix only when the database brought none: the
  // report's runner.drc_builds counter is 1 for JSON and absent for .clrdb.
  for (const char* ext : {".json", ".clrdb"}) {
    const std::string db = explore_small_db(std::string("clrtool_db_drc") + ext);
    const std::string report = ::testing::TempDir() + "clrtool_db_drc_report.json";
    const auto [code, out] = run_tool("simulate --tasks 6 --seed 5 --cycles 2000 --replications 2 "
                                      "--jobs 1 --db " + db + " --report " + report);
    EXPECT_EQ(code, 0) << out;
    const bool built = read_file(report).find("\"runner.drc_builds\": 1") != std::string::npos;
    EXPECT_EQ(built, std::string(ext) == ".json") << ext;
    std::remove(db.c_str());
    std::remove(report.c_str());
  }
}

// --- fleet: golden, interrupt/resume, and the committed checkpoint fixtures ---

const std::string kFleetGolden =
    "fleet result (300 of 300 devices)\n"
    "+--------+------+--------+-------------+-----------+----------------+-------------+------------+-----------+---------+\n"
    "| policy | pRC  | cycles | mean energy | reconfigs | QoS violations | unrecovered | mean avail | mean MTTR | max dRC |\n"
    "+--------+------+--------+-------------+-----------+----------------+-------------+------------+-----------+---------+\n"
    "| aura   | 0.50 | 2000   | 84.80       | 1818      | 0              | 1           | 0.99737    | 4.6       | 3155.95 |\n"
    "+--------+------+--------+-------------+-----------+----------------+-------------+------------+-----------+---------+\n"
    "per-shard aggregates (bit-identical at any --shards/--jobs)\n"
    "+-------+---------+--------+-----------+----------------+-------------+-------------+------------+\n"
    "| shard | devices | events | reconfigs | QoS violations | unrecovered | mean energy | mean avail |\n"
    "+-------+---------+--------+-----------+----------------+-------------+-------------+------------+\n"
    "| 0     | 192     | 3807   | 1151      | 0              | 0           | 84.94       | 0.99779    |\n"
    "| 1     | 108     | 2154   | 667       | 0              | 1           | 84.54       | 0.99664    |\n"
    "+-------+---------+--------+-----------+----------------+-------------+-------------+------------+\n";

const std::string kFleetArgs =
    "fleet --tasks 6 --seed 5 --policy aura --devices 300 --cycles 2000 --fault-rate 1e-4 "
    "--prefetch ";

/// The "summary" object of a fleet report.
std::string report_summary(const std::string& report) {
  const std::size_t start = report.find("\"summary\"");
  return start == std::string::npos ? "" : report.substr(start, report.find('}', start) - start);
}

TEST(CliFleet, OutputIsByteIdenticalToTheRecordedGolden) {
  // --jobs 2 pins the shard count (it defaults to the hardware thread
  // count). Wall-clock lines and fields are dropped.
  const std::string db = explore_small_db("clrtool_fleet_golden.json");
  const std::string report = ::testing::TempDir() + "clrtool_fleet_golden_report.json";
  const auto [code, out] =
      run_tool(kFleetArgs + "--block 64 --jobs 2 --db " + db + " --report " + report);
  EXPECT_EQ(code, 0) << out;
  EXPECT_EQ(drop_lines(out, {"throughput:"}), kFleetGolden + "report written to " + report + "\n");
  EXPECT_EQ(drop_lines(read_file(report), {"\"wall_seconds\"", "\"devices_per_second\""}),
            read_file(std::string(CLR_TESTS_DIR) + "/tools/fixtures/fleet_aura_report.json"));
  std::remove(db.c_str());
  std::remove(report.c_str());
}

const std::string kFleetMdpGolden =
    "fleet result (300 of 300 devices)\n"
    "+--------+------+--------+-------------+-----------+----------------+-------------+------------+-----------+---------+\n"
    "| policy | pRC  | cycles | mean energy | reconfigs | QoS violations | unrecovered | mean avail | mean MTTR | max dRC |\n"
    "+--------+------+--------+-------------+-----------+----------------+-------------+------------+-----------+---------+\n"
    "| mdp    | 0.50 | 2000   | 77.59       | 3093      | 0              | 6           | 0.99708    | 5.2       | 41.79   |\n"
    "+--------+------+--------+-------------+-----------+----------------+-------------+------------+-----------+---------+\n"
    "per-shard aggregates (bit-identical at any --shards/--jobs)\n"
    "+-------+---------+--------+-----------+----------------+-------------+-------------+------------+\n"
    "| shard | devices | events | reconfigs | QoS violations | unrecovered | mean energy | mean avail |\n"
    "+-------+---------+--------+-----------+----------------+-------------+-------------+------------+\n"
    "| 0     | 192     | 3807   | 1968      | 0              | 2           | 77.61       | 0.99707    |\n"
    "| 1     | 108     | 2154   | 1125      | 0              | 4           | 77.56       | 0.99711    |\n"
    "+-------+---------+--------+-----------+----------------+-------------+-------------+------------+\n";

TEST(CliFleet, MdpOutputIsByteIdenticalToTheRecordedGolden) {
  // The production MDP path end to end: the offline table solve, the tabular
  // decisions, prefetch and both fault kinds, recorded with an earlier build.
  const std::string db = explore_small_db("clrtool_fleet_mdp_golden.json");
  const std::string report = ::testing::TempDir() + "clrtool_fleet_mdp_golden_report.json";
  const auto [code, out] = run_tool(
      "fleet --tasks 6 --seed 5 --policy mdp --prefetch --fault-rate 1e-4 --pe-mtbf 5e4 "
      "--devices 300 --block 64 --cycles 2000 --jobs 2 --db " + db + " --report " + report);
  EXPECT_EQ(code, 0) << out;
  EXPECT_EQ(drop_lines(out, {"throughput:"}),
            kFleetMdpGolden + "report written to " + report + "\n");
  EXPECT_EQ(drop_lines(read_file(report), {"\"wall_seconds\"", "\"devices_per_second\""}),
            read_file(std::string(CLR_TESTS_DIR) + "/tools/fixtures/fleet_mdp_report.json"));
  std::remove(db.c_str());
  std::remove(report.c_str());
}

TEST(CliFleet, StepBudgetInterruptsWithExitCode3AndResumeMatchesTheUninterruptedRun) {
  const std::string db = explore_small_db("clrtool_fleet_resume.json");
  const std::string ckpt = ::testing::TempDir() + "clrtool_fleet_ckpt.clrdb";
  const std::string full = ::testing::TempDir() + "clrtool_fleet_full.json";
  const std::string resumed = ::testing::TempDir() + "clrtool_fleet_resumed.json";
  std::remove((ckpt + ".a").c_str());
  std::remove((ckpt + ".b").c_str());
  const std::string common =
      "fleet --tasks 6 --seed 5 --policy ura --devices 1000 --block 8 --cycles 2000 "
      "--fault-rate 1e-4 --prefetch --db " + db + " ";

  ASSERT_EQ(run_tool(common + "--jobs 2 --report " + full).first, 0);
  // One worker starts no block after the budget: exactly 3 blocks of 8.
  const auto [icode, iout] =
      run_tool(common + "--jobs 1 --checkpoint " + ckpt + " --step-budget 3");
  EXPECT_EQ(icode, 3) << iout;
  EXPECT_NE(iout.find("fleet result (24 of 1000 devices)"), std::string::npos) << iout;
  EXPECT_NE(iout.find("--resume to continue"), std::string::npos) << iout;
  const auto [rcode, rout] = run_tool(common + "--checkpoint " + ckpt +
                                      " --resume --shards 5 --jobs 2 --report " + resumed);
  EXPECT_EQ(rcode, 0) << rout;
  EXPECT_NE(rout.find("resumed from checkpoint"), std::string::npos) << rout;
  const std::string summary = report_summary(read_file(full));
  EXPECT_FALSE(summary.empty());
  EXPECT_EQ(report_summary(read_file(resumed)), summary);

  for (const std::string& path : {db, full, resumed, ckpt + ".a", ckpt + ".b"}) {
    std::remove(path.c_str());
  }
}

TEST(CliFleet, UnwritableCheckpointExitsOneWithTheWriteErrorLikeExplore) {
  // The checkpoint path is checked before any work: each command prints the
  // error of a failed save and nothing else — no explore (inline or not), no
  // fleet result.
  const std::string db = explore_small_db("clrtool_fleet_unwritable.json");
  const std::string ckpt = ::testing::TempDir() + "clrtool_no_such_dir/f.clrdb";
  const std::string expected = "clrtool: snapshot: cannot open " + ckpt + ".a.tmp for writing\n";
  const std::string fleet =
      "fleet --tasks 6 --seed 5 --devices 200 --block 8 --cycles 2000 --jobs 2 ";
  const std::string commands[] = {"explore --tasks 6 --seed 5 --pop 8 --gens 3",
                                  fleet + "--db " + db, fleet + "--pop 8 --gens 3"};
  for (const std::string& command : commands) {
    const auto [code, out] = run_tool(command + " --checkpoint " + ckpt);
    EXPECT_EQ(code, 1) << command << "\n" << out;
    EXPECT_EQ(out, expected) << command;
  }
  std::remove(db.c_str());
}

TEST(CliCheckpointFixtures, OlderCheckpointsResumeThroughTheCliToTheUninterruptedTable) {
  // tests/io/fixtures/README.md: each file is one slot of an interrupted run
  // by an older clrtool. Resumed today, it must finish the same table as an
  // uninterrupted run — the only check of Runner::grid_hash and
  // fleet::fleet_param_hash against older writers.
  struct Fixture {
    const char* file;
    const char* slot;
    std::string args;
  };
  const std::string runner =
      "simulate --tasks 6 --pop 16 --gens 4 --replications 3 --cycles 2000 --fault-rate 1e-4 "
      "--jobs 1";
  const std::string fleet =
      "fleet --devices 40 --tasks 6 --block 16 --cycles 2000 --fault-rate 1e-4 --jobs 1";
  const Fixture fixtures[] = {{"runner_v4.clrdb", ".a", runner + " --prefetch"},
                              {"fleet_v4.clrdb", ".b", fleet + " --prefetch"}};
  for (const Fixture& f : fixtures) {
    SCOPED_TRACE(f.file);
    const std::string base = ::testing::TempDir() + "clrtool_fixture_" + f.file;
    std::remove((base + ".a").c_str());
    std::remove((base + ".b").c_str());
    std::ofstream(base + f.slot, std::ios::binary)
        << read_file(std::string(CLR_TESTS_DIR) + "/io/fixtures/" + f.file);

    const auto [rcode, rout] = run_tool(f.args + " --checkpoint " + base + " --resume");
    EXPECT_EQ(rcode, 0) << rout;
    EXPECT_NE(rout.find("resumed from checkpoint"), std::string::npos) << rout;
    const auto [fcode, fout] = run_tool(f.args);
    EXPECT_EQ(fcode, 0) << fout;
    EXPECT_EQ(drop_lines(rout, {"resumed from checkpoint", "throughput:"}),
              drop_lines(fout, {"throughput:"}));
    std::remove((base + ".a").c_str());
    std::remove((base + ".b").c_str());
  }
}

TEST(CliCheckpointFixtures, V3CheckpointsAreRefusedAndLeftByteIdentical) {
  // Only format version 4 is readable. A resume onto a v3 slot with no
  // loadable sibling must fail, not start fresh over the slot.
  struct Fixture {
    const char* file;
    const char* slot;
    const char* sibling;
    std::string args;
  };
  const Fixture fixtures[] = {
      {"runner_v3.clrdb", ".a", ".b",
       "simulate --tasks 6 --pop 16 --gens 4 --replications 3 --cycles 2000 --fault-rate 1e-4 "
       "--jobs 1"},
      {"fleet_v3.clrdb", ".b", ".a",
       "fleet --devices 40 --tasks 6 --block 16 --cycles 2000 --fault-rate 1e-4 --jobs 1"}};
  for (const Fixture& f : fixtures) {
    SCOPED_TRACE(f.file);
    const std::string base = ::testing::TempDir() + "clrtool_fixture_" + f.file;
    std::remove((base + ".a").c_str());
    std::remove((base + ".b").c_str());
    const std::string bytes = read_file(std::string(CLR_TESTS_DIR) + "/io/fixtures/" + f.file);
    std::ofstream(base + f.slot, std::ios::binary) << bytes;

    const auto [code, out] = run_tool(f.args + " --checkpoint " + base + " --resume");
    EXPECT_EQ(code, 1) << out;
    // The message names the slot that holds the refused file.
    EXPECT_NE(out.find("clrtool: snapshot: " + base + f.slot +
                       ": format version 3 (this reader supports only version 4)"),
              std::string::npos)
        << out;
    EXPECT_EQ(read_file(base + f.slot), bytes);
    EXPECT_FALSE(std::ifstream(base + f.sibling).good()) << "a fresh run wrote a checkpoint";
    std::remove((base + ".a").c_str());
    std::remove((base + ".b").c_str());
  }
}

TEST(CliCheckpointFixtures, UnreadableResumeSlotFailsBeforeTheInlineExplore) {
  // The session reads the slot to resume from before any work: a slot of
  // another format version (here a bare version-5 header) fails the command
  // before its inline explore runs, and is left as it was.
  const std::string slot = std::string("\x89" "CLRDB\r\n", 8) + '\x05' + std::string(31, '\0');
  const std::string commands[] = {
      "simulate --tasks 6 --pop 16 --gens 4 --replications 3 --cycles 2000 --jobs 1",
      "fleet --tasks 6 --pop 16 --gens 4 --devices 40 --block 16 --cycles 2000 --jobs 1"};
  const std::string base = ::testing::TempDir() + "clrtool_v5_slot";
  for (const std::string& command : commands) {
    SCOPED_TRACE(command);
    std::remove((base + ".b").c_str());
    std::ofstream(base + ".a", std::ios::binary) << slot;
    const auto [code, out] = run_tool(command + " --checkpoint " + base + " --resume");
    EXPECT_EQ(code, 1) << out;
    EXPECT_EQ(out, "clrtool: snapshot: " + base +
                       ".a: format version 5 (this reader supports only version 4)\n");
    EXPECT_EQ(read_file(base + ".a"), slot);
    EXPECT_FALSE(std::ifstream(base + ".b").good()) << "a fresh run wrote a checkpoint";
  }
  std::remove((base + ".a").c_str());
}

}  // namespace
