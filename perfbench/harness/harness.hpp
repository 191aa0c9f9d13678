#pragma once

// Shared pieces of the benchmark harness: process clocks, the in-memory
// span recorder, and JSON rendering of the raw results that
// perfbench/run.py turns into metrics.  Everything here lives outside the
// program: spans wrap the harness's own calls into each eus layer.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pareto/point.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
  std::size_t setups = 3;
};

/// The harness clock's zero: the first call (main() makes it at start-up).
[[nodiscard]] inline std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

/// Seconds on the steady clock since the harness started.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch())
      .count();
}

/// The steady-clock instant `s` harness seconds after start-up.
[[nodiscard]] inline std::chrono::steady_clock::time_point at_s(double s) {
  return epoch() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(s));
}

/// Process CPU seconds (user + system, every thread).
[[nodiscard]] inline double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

[[nodiscard]] inline double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One traced interval.  `parent` is the index of the enclosing span, or
/// -1 for a root; `key` groups the spans of one serve request (its id).
struct Span {
  std::string name;
  std::int64_t parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  std::string key;
};

/// Spans kept in memory and rendered once, when the run ends.  A disabled
/// tracer records nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records a finished span; returns its index (-1 when disabled).
  std::int64_t add(std::string name, std::int64_t parent, double start_s,
                   double end_s, std::string key = {}) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, start_s, end_s,
                      std::move(key)});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Opens a span ending at now_s() when end() is called.
  std::int64_t begin(std::string name, std::int64_t parent = -1) {
    const double t = now_s();
    return add(std::move(name), parent, t, t);
  }
  void end(std::int64_t span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_s = now_s();
  }

  [[nodiscard]] std::string json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Renders a sequence of already-rendered JSON values as an array.
[[nodiscard]] std::string json_array(const std::vector<std::string>& items);
[[nodiscard]] std::string json_numbers(const std::vector<double>& values);
/// [[energy, utility], ...] with round-trip precision.
[[nodiscard]] std::string front_json(const std::vector<eus::EUPoint>& front);
/// {"name": value, ...} over every counter, and every timer's seconds.
[[nodiscard]] std::string counters_json(const eus::MetricsSnapshot& snap);
[[nodiscard]] std::string timers_json(const eus::MetricsSnapshot& snap);

/// Median of a non-empty sample (copies; the harness's samples are small).
[[nodiscard]] double median(std::vector<double> values);

/// Median milliseconds of each heuristic seed's construction, as
/// {"min-energy": ms, ...} keyed by the heuristic's name.
[[nodiscard]] std::string seed_timings(const eus::Scenario& scenario,
                                       Tracer& tracer);
/// Nanoseconds per simulated task on the evaluator's full, trusted and
/// delta paths: {"full_ns_per_task", "trusted_ns_per_task",
/// "delta_ns_per_task"}.
[[nodiscard]] std::string evaluator_timings(const eus::Scenario& scenario,
                                            std::uint64_t seed,
                                            Tracer& tracer);

[[nodiscard]] std::string run_study(const Options& options);
[[nodiscard]] std::string run_serve_fleet(const Options& options);

}  // namespace perfbench
