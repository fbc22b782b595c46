#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/table.hpp"
#include "io/json.hpp"

namespace clr::bench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

io::Json number(double v) { return std::isfinite(v) ? io::Json(v) : io::Json(nullptr); }

io::Json numbers(const std::vector<double>& values) {
  io::JsonArray out;
  for (double v : values) out.push_back(number(v));
  return io::Json(std::move(out));
}

std::string& run_id_storage() {
  static std::string id;
  return id;
}

}  // namespace

std::string Report::to_json_line() const {
  io::JsonObject layer_obj;
  for (const Metric& m : layers) {
    layer_obj.emplace_back(m.name, io::Json(io::JsonObject{{"value", number(m.value)},
                                                           {"unit", io::Json(m.unit)}}));
  }
  io::JsonArray error_arr;
  for (const std::string& e : errors) error_arr.emplace_back(e);
  io::JsonArray span_arr;
  for (const std::string& s : span_names) span_arr.emplace_back(s);
  const io::JsonObject obj{
      {"workload", io::Json(workload)},
      {"attempted", io::Json(attempted)},
      {"failed", io::Json(failed)},
      {"errors", io::Json(std::move(error_arr))},
      {"digest", io::Json(digest)},
      {"reps", io::Json(static_cast<std::uint64_t>(reps))},
      {"wall_samples", numbers(wall_samples)},
      {"setup_samples", numbers(setup_samples)},
      {"peak_rss_mb", number(peak_rss_mb)},
      {"layers", io::Json(std::move(layer_obj))},
      {"span_names", io::Json(std::move(span_arr))},
  };
  return io::Json(obj).dump();
}

void set_run_id(std::string id) { run_id_storage() = std::move(id); }
const std::string& run_id() { return run_id_storage(); }

Span::Span(const char* name, const char* app)
    : span_(trace::Category::Bench, name, {{"run", run_id()}, {"app", app}}) {}

void start_tracing() {
  auto& tracer = trace::Tracer::instance();
  tracer.clear();
  tracer.enable(trace::mask_of(trace::Category::Bench));
}

std::vector<SpanRecord> stop_tracing() {
  auto& tracer = trace::Tracer::instance();
  tracer.disable();
  std::vector<trace::Event> events = tracer.collect();
  std::vector<SpanRecord> spans;
  for (const trace::Event& ev : events) {
    if (ev.phase != trace::Phase::Complete || ev.category != trace::Category::Bench) continue;
    SpanRecord rec;
    rec.name = ev.name;
    for (const trace::Arg& a : ev.args) {
      if (a.key == "app") rec.app = a.value;
    }
    rec.start_s = static_cast<double>(ev.ts_ns) * 1e-9;
    rec.dur_s = static_cast<double>(ev.dur_ns) * 1e-9;
    rec.self_s = rec.dur_s;
    rec.tid = ev.tid;
    spans.push_back(std::move(rec));
  }
  // Parent = innermost earlier span on the same thread whose interval
  // contains this one (outer spans first on equal starts).
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].tid != spans[b].tid) return spans[a].tid < spans[b].tid;
    if (spans[a].start_s != spans[b].start_s) return spans[a].start_s < spans[b].start_s;
    return spans[a].dur_s > spans[b].dur_s;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i : order) {
    const SpanRecord& s = spans[i];
    while (!stack.empty()) {
      const SpanRecord& top = spans[stack.back()];
      const bool same_thread = top.tid == s.tid;
      if (same_thread && s.start_s + s.dur_s <= top.start_s + top.dur_s + 1e-9) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      spans[i].parent = static_cast<int>(stack.back());
      spans[stack.back()].self_s -= s.dur_s;
    }
    stack.push_back(i);
  }
  return spans;
}

void write_chrome_trace(const std::string& path) {
  util::write_file(path, trace::Tracer::instance().chrome_trace().dump() + "\n");
}

std::vector<std::pair<std::string, double>> summarize_trace(const std::vector<SpanRecord>& spans,
                                                            Report& report) {
  std::vector<double> timed;
  double timed_total = 0.0;
  std::vector<std::pair<std::string, double>> self_by_name;
  const auto in_timed = [&](const SpanRecord& s) {
    for (int p = s.parent; p >= 0; p = spans[static_cast<std::size_t>(p)].parent) {
      if (spans[static_cast<std::size_t>(p)].name == "bench.timed") return true;
    }
    return false;
  };
  for (const SpanRecord& s : spans) {
    if (s.name == "bench.timed") {
      timed.push_back(s.dur_s);
      timed_total += s.dur_s;
      continue;
    }
    if (!in_timed(s)) continue;
    auto it = std::find_if(self_by_name.begin(), self_by_name.end(),
                           [&](const auto& e) { return e.first == s.name; });
    if (it == self_by_name.end()) {
      self_by_name.emplace_back(s.name, s.self_s);
    } else {
      it->second += s.self_s;
    }
  }
  if (timed.empty() || timed_total <= 0.0) {
    report.fail("traced run recorded no timed phase");
    return {};
  }
  report.layer("trace.overhead_s", median(timed) - median(report.wall_samples), "s");
  for (auto& [name, self] : self_by_name) self /= timed_total;

  for (const SpanRecord& s : spans) {
    if (std::find(report.span_names.begin(), report.span_names.end(), s.name) ==
        report.span_names.end()) {
      report.span_names.push_back(s.name);
    }
  }
  return self_by_name;
}

std::vector<double> durations(const std::vector<SpanRecord>& spans, const std::string& name,
                              const std::string& app) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name && (app.empty() || s.app == app)) out.push_back(s.dur_s);
  }
  return out;
}

}  // namespace clr::bench
