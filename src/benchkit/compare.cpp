#include "benchkit/compare.hpp"

#include <cmath>
#include <stdexcept>

#include "benchkit/results.hpp"
#include "telemetry/json.hpp"
#include "util/json_value.hpp"

namespace eus::benchkit {

Baselines baselines_from_json(const util::JsonValue& doc) {
  if (!doc.is_object()) throw std::runtime_error("baselines: not an object");
  const util::JsonValue* version = doc.get("schema_version");
  if (version == nullptr || version->as_uint() != 1U) {
    throw std::runtime_error("baselines: unsupported schema_version");
  }
  Baselines b;
  b.machine = doc.string_or("machine", "");
  const util::JsonValue* scenarios = doc.get("scenarios");
  if (scenarios == nullptr || !scenarios->is_object()) {
    throw std::runtime_error("baselines: missing scenarios table");
  }
  for (const auto& [scenario, metrics] : scenarios->object) {
    if (!metrics.is_object()) {
      throw std::runtime_error("baselines: scenario '" + scenario +
                               "' is not an object");
    }
    for (const auto& [metric, entry] : metrics.object) {
      const util::JsonValue* value = entry.get("value");
      if (value == nullptr || !value->is_number()) {
        throw std::runtime_error("baselines: metric '" + scenario + "." +
                                 metric + "' has no numeric value");
      }
      BaselineMetric bm;
      bm.value = value->number;
      if (const util::JsonValue* tol = entry.get("tolerance_pct");
          tol != nullptr && tol->is_number()) {
        bm.tolerance_pct = tol->number;
      }
      b.scenarios[scenario][metric] = bm;
    }
  }
  return b;
}

std::string to_json(const Baselines& baselines) {
  JsonObject scenarios;
  for (const auto& [scenario, metrics] : baselines.scenarios) {
    JsonObject metrics_obj;
    for (const auto& [metric, entry] : metrics) {
      JsonObject m;
      m.field("value", entry.value);
      if (entry.tolerance_pct) m.field("tolerance_pct", *entry.tolerance_pct);
      metrics_obj.raw(metric, m.str());
    }
    scenarios.raw(scenario, metrics_obj.str());
  }
  JsonObject doc;
  doc.field("schema_version",
            static_cast<std::int64_t>(baselines.schema_version))
      .field("machine", baselines.machine)
      .raw("scenarios", scenarios.str());
  return doc.str();
}

Baselines update_baselines(const Baselines& existing,
                           const BenchResults& results) {
  Baselines updated = existing;
  updated.schema_version = 1;
  if (!results.machine.host.empty()) updated.machine = results.machine.host;
  for (const ScenarioResult& s : results.scenarios) {
    auto& metrics = updated.scenarios[s.name];
    // Refresh every metric already tracked for this scenario, keeping its
    // explicit tolerance; drop it only if the run can no longer produce it.
    for (auto& [metric, entry] : metrics) {
      if (const auto measured = s.metric(metric)) entry.value = *measured;
    }
    if (const auto wall = s.metric("wall_s")) {
      metrics["wall_s"].value = *wall;
    }
  }
  return updated;
}

CompareReport compare(const BenchResults& results, const Baselines& baselines,
                      double default_tolerance_pct) {
  CompareReport report;
  for (const auto& [scenario, metrics] : baselines.scenarios) {
    const ScenarioResult* measured = results.find(scenario);
    if (measured == nullptr) {
      CompareEntry e;
      e.scenario = scenario;
      e.status = CompareStatus::kNotMeasured;
      report.entries.push_back(std::move(e));
      continue;
    }
    for (const auto& [metric, baseline] : metrics) {
      CompareEntry e;
      e.scenario = scenario;
      e.metric = metric;
      e.baseline = baseline.value;
      e.tolerance_pct = baseline.tolerance_pct.value_or(default_tolerance_pct);
      const auto value = measured->metric(metric);
      if (!value) {
        e.status = CompareStatus::kMissingMetric;
        report.entries.push_back(std::move(e));
        continue;
      }
      e.measured = *value;
      if (baseline.value > 0.0) {
        e.delta_pct = (e.measured - e.baseline) / e.baseline * 100.0;
      } else {
        // A zero baseline has no meaningful relative delta: any positive
        // measurement is reported as a full-band excursion.
        e.delta_pct = e.measured > 0.0 ? 100.0 + e.tolerance_pct : 0.0;
      }
      if (e.delta_pct > e.tolerance_pct) {
        e.status = CompareStatus::kRegression;
      } else if (e.delta_pct < -e.tolerance_pct) {
        e.status = CompareStatus::kImproved;
      } else {
        e.status = CompareStatus::kOk;
      }
      report.entries.push_back(std::move(e));
    }
  }
  for (const ScenarioResult& s : results.scenarios) {
    if (baselines.scenarios.find(s.name) == baselines.scenarios.end()) {
      CompareEntry e;
      e.scenario = s.name;
      e.status = CompareStatus::kNoBaseline;
      report.entries.push_back(std::move(e));
    }
  }
  return report;
}

std::size_t CompareReport::failures() const {
  std::size_t n = 0;
  for (const CompareEntry& e : entries) {
    if (e.status == CompareStatus::kRegression ||
        e.status == CompareStatus::kMissingMetric) {
      ++n;
    }
  }
  return n;
}

const char* to_string(CompareStatus status) {
  switch (status) {
    case CompareStatus::kOk:
      return "ok";
    case CompareStatus::kImproved:
      return "improved";
    case CompareStatus::kRegression:
      return "REGRESSION";
    case CompareStatus::kMissingMetric:
      return "MISSING METRIC";
    case CompareStatus::kNotMeasured:
      return "not measured";
    case CompareStatus::kNoBaseline:
      return "no baseline";
  }
  return "unknown";
}

}  // namespace eus::benchkit
