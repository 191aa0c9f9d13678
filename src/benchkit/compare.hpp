#pragma once

// Baseline regression gating: diff a BenchResults against the committed
// bench/baselines.json and decide pass/fail per metric.
//
// Baselines schema (schema_version 1):
//   {
//     "schema_version": 1,
//     "machine": "<host the values were recorded on — informational>",
//     "scenarios": {
//       "<name>": {
//         "wall_s": {"value": 0.42},
//         "counter.nsga2.evaluations": {"value": 5500, "tolerance_pct": 0}
//       }, ...
//     }
//   }
//
// Every metric is higher-is-worse (wall seconds, event counts).  A metric
// regresses when measured > value * (1 + tolerance/100); the tolerance is
// the metric's own "tolerance_pct" when present, else the runner's
// --tolerance-pct.  Baseline scenarios missing from a (filtered) run are
// skipped; measured scenarios without a baseline are reported but never
// fail — run --update-baselines to adopt them.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json_value.hpp"

namespace eus::benchkit {
struct BenchResults;

struct BaselineMetric {
  double value = 0.0;
  std::optional<double> tolerance_pct;  ///< overrides the runner default
};

struct Baselines {
  int schema_version = 1;
  std::string machine;  ///< host that recorded the values (informational)
  /// scenario name -> metric id -> baseline.
  std::map<std::string, std::map<std::string, BaselineMetric>> scenarios;
};

/// Parses the schema above; throws std::runtime_error on violations.
[[nodiscard]] Baselines baselines_from_json(const util::JsonValue& doc);

[[nodiscard]] std::string to_json(const Baselines& baselines);

/// Merges a run into a baseline set: every measured scenario gets its
/// "wall_s" value refreshed (keeping an explicit tolerance_pct), extra
/// hand-added metrics keep their tolerances and are refreshed when the run
/// measured them, and baseline scenarios the run did not execute survive
/// untouched — updating from a filtered run never forgets the rest.
[[nodiscard]] Baselines update_baselines(const Baselines& existing,
                                         const BenchResults& results);

enum class CompareStatus {
  kOk,           ///< within the tolerance band
  kImproved,     ///< better than baseline by more than the tolerance
  kRegression,   ///< worse than baseline by more than the tolerance
  kMissingMetric,  ///< baseline names a metric the run did not produce
  kNotMeasured,  ///< baseline scenario absent from this (filtered) run
  kNoBaseline,   ///< measured scenario has no baseline entry yet
};

struct CompareEntry {
  std::string scenario;
  std::string metric;
  double baseline = 0.0;
  double measured = 0.0;
  double delta_pct = 0.0;      ///< (measured - baseline) / baseline * 100
  double tolerance_pct = 0.0;
  CompareStatus status = CompareStatus::kOk;
};

struct CompareReport {
  std::vector<CompareEntry> entries;

  /// Failures: regressions plus baselines whose metric vanished.
  [[nodiscard]] std::size_t failures() const;
  [[nodiscard]] bool ok() const { return failures() == 0; }
};

[[nodiscard]] CompareReport compare(const BenchResults& results,
                                    const Baselines& baselines,
                                    double default_tolerance_pct);

[[nodiscard]] const char* to_string(CompareStatus status);

}  // namespace eus::benchkit
