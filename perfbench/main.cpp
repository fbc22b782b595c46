// clrbench — the workload processes behind perfbench/run.py.
//
//   clrbench gen --workload W --out F.clrdb
//       Write fleet workload W's design database (run.py calls this in its
//       own process, before the measured one).
//   clrbench run --workload W --seed S --seconds T --trace 0|1
//                [--input F.clrdb] [--trace-out F.json]
//       Measure one workload and print its report as the last stdout line.
//       Exits 1 when any output check failed.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "workloads.hpp"

namespace {

using clr::bench::RunOptions;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::uint64_t to_u64(const std::string& s) {
  std::size_t pos = 0;
  const unsigned long long v = std::stoull(s, &pos);
  if (pos != s.size()) throw std::invalid_argument("not an integer: '" + s + "'");
  return v;
}

int run(const std::map<std::string, std::string>& flags) {
  RunOptions opt;
  opt.workload = need(flags, "workload");
  opt.seed = to_u64(need(flags, "seed"));
  opt.seconds = std::stod(need(flags, "seconds"));
  opt.trace = need(flags, "trace") == "1";
  if (flags.count("input") != 0) opt.input = flags.at("input");
  if (flags.count("trace-out") != 0) opt.trace_out = flags.at("trace-out");
  clr::bench::set_run_id(opt.workload + "-" + std::to_string(opt.seed) + "-" +
                         std::to_string(static_cast<long>(getpid())));

  clr::bench::Report report = opt.workload == "explore" ? clr::bench::run_explore(opt)
                                                        : clr::bench::run_fleet_workload(opt);
  std::printf("%s\n", report.to_json_line().c_str());
  return report.errors.empty() && report.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    const auto flags = parse_flags(argc, argv);
    if (cmd == "gen") {
      clr::bench::generate_artifact(need(flags, "workload"), need(flags, "out"));
      return 0;
    }
    if (cmd == "run") return run(flags);
    std::fprintf(stderr, "usage: clrbench gen|run --flag value ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clrbench: %s\n", e.what());
    return 2;
  }
}
