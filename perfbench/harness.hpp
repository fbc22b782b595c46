#pragma once
// Measurement plumbing shared by the clrbench workloads: host-time clocks,
// sample statistics, the output digest, the bench-only span recorder and the
// one-line JSON report a workload process prints for perfbench/run.py.
//
// All times here are host time (std::chrono::steady_clock). Simulated
// quantities (cycles, events, faults) are model outputs and only ever enter
// the report as counts or through the digest.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace clr::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// Peak resident set of this process so far, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// FNV-1a digest over model outputs. Every value is hashed by its exact
/// bytes, so two runs agree only when every simulated statistic is
/// bit-identical.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// True when a and b have the same bit pattern (distinguishes -0.0 / NaNs,
/// which == would not).
inline bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Run options handed from run.py to one workload process.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string input;      ///< fleet design database written by `clrbench gen`
  std::string trace_out;  ///< Chrome-trace JSON path of the traced run
};

/// One named metric of the report.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload process measured. Rendered as one JSON line.
struct Report {
  std::string workload;
  std::uint64_t attempted = 0;  ///< operations: design flows or simulated devices
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string digest;  ///< digest of the untraced timed phase's outputs
  std::size_t reps = 0;
  std::vector<double> wall_samples;   ///< untraced timed phase, one per rep
  std::vector<double> setup_samples;  ///< in-process set-ups, spread over the run
  double peak_rss_mb = 0.0;
  std::vector<Metric> layers;  ///< traced run only
  std::vector<std::string> span_names;  ///< traced run only: distinct span names

  void fail(const std::string& what) { errors.push_back(what); }
  void layer(const std::string& name, double value, const char* unit) {
    layers.push_back({name, value, unit});
  }
  std::string to_json_line() const;
};

/// Set-up samples: kSetupSamplesPerRep after every untraced timed rep, then
/// topped up to kSetupSamples after the last one; setup_s is their median.
/// Spreading them over the run matters: bunched into one window they all
/// share its host state, and the same 7 ms explore set-up then read 5 ms in
/// one process and 8 ms in the next. The process's first, cold set-up (before
/// the first rep) is never a sample.
inline constexpr std::size_t kSetupSamplesPerRep = 4;
inline constexpr std::size_t kSetupSamples = 30;

/// Timed-phase repetitions: repeat until `budget_s` seconds have been
/// measured, at least `min_reps` times.
inline bool want_more_reps(const std::vector<double>& samples, double budget_s,
                           std::size_t min_reps) {
  double total = 0.0;
  for (double s : samples) total += s;
  return samples.size() < min_reps || total < budget_s;
}

// --- bench spans ------------------------------------------------------------
// Spans are recorded only from the benchmark's own files, around its calls
// into the library, through trace::Tracer with the Bench category alone
// enabled (the library's own dse/runtime spans stay off). Every span carries
// the workload run's id; parents follow from nesting on one thread.

/// Set the run id attached to every span of this process.
void set_run_id(std::string id);
const std::string& run_id();

/// Scoped bench span; `app` tags per-application explore spans ("" = none).
class Span {
 public:
  Span(const char* name, const char* app = "");

 private:
  trace::Span span_;
};

/// Run `set_up` `n` times, each under a bench.setup span, and append each
/// one's host time to `samples`.
template <typename F>
void sample_setups(F&& set_up, std::size_t n, std::vector<double>& samples) {
  for (std::size_t k = 0; k < n; ++k) {
    const Clock::time_point start = Clock::now();
    {
      Span span("bench.setup");
      set_up();
    }
    samples.push_back(seconds_since(start));
  }
}

/// One recorded span with its nesting parent and self time.
struct SpanRecord {
  std::string name;
  std::string app;
  double start_s = 0.0;
  double dur_s = 0.0;
  double self_s = 0.0;  ///< dur_s minus the time its direct children cover
  int parent = -1;      ///< index into the returned vector, -1 = top level
  std::uint32_t tid = 0;
};

/// Start recording bench spans (drops anything recorded before).
void start_tracing();
/// Stop recording and return every span with parents and self times.
std::vector<SpanRecord> stop_tracing();
/// Write the recorded spans as Chrome trace_event JSON.
void write_chrome_trace(const std::string& path);

/// Common tail of every traced run. Adds trace.overhead_s (median traced
/// minus median untraced timed phase, from report.wall_samples) and records
/// the distinct span names for the structural checks. Returns each
/// timed-phase span name's self time as a share of the timed phase.
std::vector<std::pair<std::string, double>> summarize_trace(const std::vector<SpanRecord>& spans,
                                                            Report& report);

/// Durations of every span named `name` (optionally only those tagged `app`).
std::vector<double> durations(const std::vector<SpanRecord>& spans, const std::string& name,
                              const std::string& app = "");

}  // namespace clr::bench
