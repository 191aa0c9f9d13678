// benchkit: scenario registry, robust aggregates, the BENCH_results.json
// round-trip, baseline compare/update semantics, and the measurement loop's
// metrics snapshotting.

#include <gtest/gtest.h>

#include <cmath>
#include <regex>

#include "benchkit/compare.hpp"
#include "benchkit/registry.hpp"
#include "benchkit/results.hpp"
#include "benchkit/runner.hpp"
#include "benchkit/stats.hpp"
#include "telemetry/metrics.hpp"
#include "util/json_value.hpp"

namespace eus::benchkit {
namespace {

int noop_scenario(ScenarioContext&) { return 0; }

// ---------------------------------------------------------------- registry

TEST(BenchkitRegistry, RegistersAndSortsByName) {
  ScenarioRegistry registry;
  EXPECT_TRUE(registry.add("zeta", "last", &noop_scenario));
  EXPECT_TRUE(registry.add("alpha", "first", &noop_scenario));
  EXPECT_TRUE(registry.add("mid", "middle", &noop_scenario));
  ASSERT_EQ(registry.size(), 3U);
  const auto all = registry.all();
  ASSERT_EQ(all.size(), 3U);
  EXPECT_EQ(all[0]->name, "alpha");
  EXPECT_EQ(all[1]->name, "mid");
  EXPECT_EQ(all[2]->name, "zeta");
}

TEST(BenchkitRegistry, RejectsDuplicatesNullsAndEmptyNames) {
  ScenarioRegistry registry;
  EXPECT_TRUE(registry.add("fig3", "keeper", &noop_scenario));
  EXPECT_FALSE(registry.add("fig3", "imposter", &noop_scenario));
  EXPECT_FALSE(registry.add("", "anonymous", &noop_scenario));
  EXPECT_FALSE(registry.add("nullfn", "no body", nullptr));
  ASSERT_EQ(registry.size(), 1U);
  EXPECT_EQ(registry.find("fig3")->description, "keeper");
}

TEST(BenchkitRegistry, FiltersWithGrepStyleRegex) {
  ScenarioRegistry registry;
  for (const char* name :
       {"fig3_dataset1", "fig4_dataset2", "ablation_crowding",
        "ablation_seeds", "micro_ops"}) {
    ASSERT_TRUE(registry.add(name, "", &noop_scenario));
  }
  const auto figs = registry.matching("fig");
  ASSERT_EQ(figs.size(), 2U);
  EXPECT_EQ(figs[0]->name, "fig3_dataset1");

  const auto alternation = registry.matching("fig|ablation_crowding");
  EXPECT_EQ(alternation.size(), 3U);

  EXPECT_TRUE(registry.matching("^dataset").empty());
  EXPECT_THROW((void)registry.matching("["), std::regex_error);
}

TEST(BenchkitRegistry, GlobalRegistryBacksTheMacro) {
  // The macro registers through register_scenario(); exercise that path
  // with a unique name rather than relying on bench TUs being linked in.
  const std::size_t before = ScenarioRegistry::global().size();
  ASSERT_TRUE(register_scenario("test_benchkit_probe", "probe",
                                &noop_scenario));
  EXPECT_EQ(ScenarioRegistry::global().size(), before + 1);
  EXPECT_FALSE(register_scenario("test_benchkit_probe", "dup",
                                 &noop_scenario));
}

// ------------------------------------------------------------------- stats

TEST(BenchkitStats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.5}), 7.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchkitStats, AggregateOnFixedSamples) {
  // median 4, deviations {3,2,1,0,1,2,3} -> MAD 2.
  const Aggregate a = aggregate({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
  EXPECT_EQ(a.count, 7U);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 7.0);
  EXPECT_DOUBLE_EQ(a.mean, 4.0);
  EXPECT_DOUBLE_EQ(a.median, 4.0);
  EXPECT_DOUBLE_EQ(a.mad, 2.0);
}

TEST(BenchkitStats, MadAbsorbsOneOutlier) {
  // One wild sample moves the mean but not median/MAD much — the property
  // the baseline gate relies on.
  const Aggregate a = aggregate({1.0, 1.1, 0.9, 1.0, 50.0});
  EXPECT_DOUBLE_EQ(a.median, 1.0);
  EXPECT_NEAR(a.mad, 0.1, 1e-12);
  EXPECT_GT(a.mean, 10.0);
}

// -------------------------------------------------------------------- json

TEST(BenchkitJson, ParsesScalarsContainersAndEscapes) {
  const util::JsonValue doc = util::parse_json(
      R"({"a": 1.5, "b": "x\n\"yA", "c": [true, null, -2e3],
          "nested": {"k": 7}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.number_or("a", 0.0), 1.5);
  EXPECT_EQ(doc.string_or("b", ""), "x\n\"yA");
  const util::JsonValue* c = doc.get("c");
  ASSERT_TRUE(c != nullptr && c->is_array());
  ASSERT_EQ(c->array.size(), 3U);
  EXPECT_TRUE(c->array[0].boolean);
  EXPECT_EQ(c->array[1].kind, util::JsonValue::Kind::kNull);
  EXPECT_DOUBLE_EQ(c->array[2].number, -2000.0);
  ASSERT_TRUE(doc.get("nested") != nullptr);
  EXPECT_DOUBLE_EQ(doc.get("nested")->number_or("k", 0.0), 7.0);
}

TEST(BenchkitJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)util::parse_json(""), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("{"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("{\"a\":}"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("[1,]"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("{} trailing"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("nul"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("\"unterminated"), util::JsonParseError);
}

BenchResults sample_results() {
  BenchResults results;
  results.git_sha = "abc123";
  results.machine.host = "test-host";
  results.machine.hardware_threads = 8;
  results.config.scale = 0.001;
  results.config.seed = 20130520;
  results.config.threads = 4;
  results.config.warmup = 1;
  results.config.repetitions = 3;
  ScenarioResult fig3;
  fig3.name = "fig3_dataset1";
  fig3.wall_s = {0.5, 0.4, 0.6};
  fig3.counters = {{"nsga2.evaluations", 5500.0},
                   {"nsga2.generations", 1200.0}};
  fig3.timers_s = {{"nsga2.evaluation_s", 0.31}};
  results.scenarios.push_back(fig3);
  ScenarioResult quick;
  quick.name = "fig1_tuf";
  quick.wall_s = {0.001, 0.0012, 0.0011};
  results.scenarios.push_back(quick);
  return results;
}

TEST(BenchkitResults, JsonRoundTrip) {
  const BenchResults original = sample_results();
  const std::string json = to_json(original);
  const BenchResults parsed = results_from_json(util::parse_json(json));

  EXPECT_EQ(parsed.schema_version, 1);
  EXPECT_EQ(parsed.git_sha, "abc123");
  EXPECT_EQ(parsed.machine.host, "test-host");
  EXPECT_EQ(parsed.machine.hardware_threads, 8U);
  EXPECT_DOUBLE_EQ(parsed.config.scale, 0.001);
  EXPECT_EQ(parsed.config.seed, 20130520U);
  EXPECT_EQ(parsed.config.repetitions, 3U);
  ASSERT_EQ(parsed.scenarios.size(), 2U);

  const ScenarioResult* fig3 = parsed.find("fig3_dataset1");
  ASSERT_NE(fig3, nullptr);
  ASSERT_EQ(fig3->wall_s.size(), 3U);
  EXPECT_DOUBLE_EQ(fig3->wall_s[1], 0.4);
  EXPECT_DOUBLE_EQ(fig3->wall().median, 0.5);
  EXPECT_DOUBLE_EQ(fig3->counters.at("nsga2.evaluations"), 5500.0);
  EXPECT_DOUBLE_EQ(fig3->timers_s.at("nsga2.evaluation_s"), 0.31);
}

TEST(BenchkitResults, MetricLookupNamespaces) {
  const BenchResults results = sample_results();
  const ScenarioResult* fig3 = results.find("fig3_dataset1");
  ASSERT_NE(fig3, nullptr);
  EXPECT_DOUBLE_EQ(fig3->metric("wall_s").value(), 0.5);
  EXPECT_DOUBLE_EQ(fig3->metric("counter.nsga2.generations").value(), 1200.0);
  EXPECT_DOUBLE_EQ(fig3->metric("timer.nsga2.evaluation_s").value(), 0.31);
  EXPECT_FALSE(fig3->metric("counter.unknown").has_value());
  EXPECT_FALSE(fig3->metric("bogus").has_value());
}

TEST(BenchkitResults, ParserRejectsWrongSchemaVersion) {
  EXPECT_THROW(
      (void)results_from_json(util::parse_json(R"({"schema_version": 2,
                                             "scenarios": {}})")),
      std::runtime_error);
  EXPECT_THROW(
      (void)results_from_json(util::parse_json(R"({"schema_version": 1})")),
      std::runtime_error);
}

// Integer fields arrive as JSON doubles: an out-of-range one is refused,
// never cast (a 1e300 cast to an integer is undefined behaviour).
TEST(BenchkitResults, ParserRejectsOutOfRangeIntegers) {
  const util::JsonValue threads = util::parse_json(
      R"({"schema_version":1, "config":{"threads":1e300}, "scenarios":{}})");
  EXPECT_THROW((void)results_from_json(threads), std::runtime_error);
  const util::JsonValue exit_code = util::parse_json(
      R"({"schema_version": 1, "scenarios": {"a": {"exit_code": 1e300}}})");
  EXPECT_THROW((void)results_from_json(exit_code), std::runtime_error);
  const util::JsonValue version =
      util::parse_json(R"({"schema_version": 1e300, "scenarios": {}})");
  EXPECT_THROW((void)results_from_json(version), std::runtime_error);
  EXPECT_THROW((void)baselines_from_json(version), std::runtime_error);

  const util::JsonValue fits = util::parse_json(
      R"({"schema_version": 1, "config": {"threads": 4}, "scenarios": {}})");
  EXPECT_EQ(results_from_json(fits).config.threads, 4U);
}

// ----------------------------------------------------------------- compare

Baselines sample_baselines() {
  Baselines b;
  b.machine = "baseline-host";
  b.scenarios["fig3_dataset1"]["wall_s"] = {0.5, std::nullopt};
  b.scenarios["fig3_dataset1"]["counter.nsga2.evaluations"] = {5500.0, 0.0};
  b.scenarios["fig1_tuf"]["wall_s"] = {0.001, 50.0};
  return b;
}

TEST(BenchkitCompare, PassesWithinTolerance) {
  const CompareReport report =
      compare(sample_results(), sample_baselines(), 25.0);
  EXPECT_TRUE(report.ok());
  for (const CompareEntry& e : report.entries) {
    EXPECT_NE(e.status, CompareStatus::kRegression) << e.scenario;
  }
}

TEST(BenchkitCompare, FlagsRegressionBeyondTolerance) {
  BenchResults results = sample_results();
  results.scenarios[0].wall_s = {0.9, 0.95, 0.85};  // median 0.9 vs 0.5
  const CompareReport report =
      compare(results, sample_baselines(), 25.0);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const CompareEntry& e : report.entries) {
    if (e.scenario == "fig3_dataset1" && e.metric == "wall_s") {
      found = true;
      EXPECT_EQ(e.status, CompareStatus::kRegression);
      EXPECT_NEAR(e.delta_pct, 80.0, 1e-9);
      EXPECT_DOUBLE_EQ(e.tolerance_pct, 25.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchkitCompare, PerMetricToleranceOverridesDefault) {
  BenchResults results = sample_results();
  // 40% over the fig1 baseline: beyond a 25% default, inside its own 50%.
  results.scenarios[1].wall_s = {0.0014, 0.0014, 0.0014};
  const CompareReport report =
      compare(results, sample_baselines(), 25.0);
  EXPECT_TRUE(report.ok());

  // The zero-tolerance counter baseline catches a one-count drift.
  results = sample_results();
  results.scenarios[0].counters["nsga2.evaluations"] = 5501.0;
  const CompareReport strict =
      compare(results, sample_baselines(), 25.0);
  EXPECT_FALSE(strict.ok());
}

TEST(BenchkitCompare, ImprovementIsNotAFailure) {
  BenchResults results = sample_results();
  results.scenarios[0].wall_s = {0.1, 0.1, 0.1};
  const CompareReport report =
      compare(results, sample_baselines(), 25.0);
  EXPECT_TRUE(report.ok());
  bool improved = false;
  for (const CompareEntry& e : report.entries) {
    if (e.scenario == "fig3_dataset1" && e.metric == "wall_s") {
      improved = e.status == CompareStatus::kImproved;
    }
  }
  EXPECT_TRUE(improved);
}

TEST(BenchkitCompare, FilteredRunSkipsUnmeasuredBaselines) {
  BenchResults results = sample_results();
  results.scenarios.erase(results.scenarios.begin());  // drop fig3
  const CompareReport report =
      compare(results, sample_baselines(), 25.0);
  EXPECT_TRUE(report.ok());
  bool skipped = false;
  for (const CompareEntry& e : report.entries) {
    if (e.scenario == "fig3_dataset1") {
      EXPECT_EQ(e.status, CompareStatus::kNotMeasured);
      skipped = true;
    }
  }
  EXPECT_TRUE(skipped);
}

TEST(BenchkitCompare, MissingMetricFailsLoudly) {
  BenchResults results = sample_results();
  results.scenarios[0].counters.clear();  // telemetry broke
  const CompareReport report =
      compare(results, sample_baselines(), 25.0);
  EXPECT_FALSE(report.ok());
}

TEST(BenchkitCompare, BaselinesJsonRoundTrip) {
  const Baselines original = sample_baselines();
  const Baselines parsed =
      baselines_from_json(util::parse_json(to_json(original)));
  EXPECT_EQ(parsed.machine, "baseline-host");
  ASSERT_EQ(parsed.scenarios.size(), 2U);
  const auto& fig3 = parsed.scenarios.at("fig3_dataset1");
  EXPECT_DOUBLE_EQ(fig3.at("wall_s").value, 0.5);
  EXPECT_FALSE(fig3.at("wall_s").tolerance_pct.has_value());
  ASSERT_TRUE(fig3.at("counter.nsga2.evaluations").tolerance_pct.has_value());
  EXPECT_DOUBLE_EQ(*fig3.at("counter.nsga2.evaluations").tolerance_pct, 0.0);
}

TEST(BenchkitCompare, UpdateMergesWithoutForgetting) {
  Baselines existing = sample_baselines();
  BenchResults results = sample_results();
  results.scenarios.erase(results.scenarios.begin() + 1);  // filtered run
  results.scenarios[0].wall_s = {0.7, 0.7, 0.7};
  results.scenarios[0].counters["nsga2.evaluations"] = 6000.0;

  const Baselines updated = update_baselines(existing, results);
  // Measured scenario: values refreshed, explicit tolerance kept.
  const auto& fig3 = updated.scenarios.at("fig3_dataset1");
  EXPECT_DOUBLE_EQ(fig3.at("wall_s").value, 0.7);
  EXPECT_DOUBLE_EQ(fig3.at("counter.nsga2.evaluations").value, 6000.0);
  ASSERT_TRUE(fig3.at("counter.nsga2.evaluations").tolerance_pct.has_value());
  // Unmeasured scenario survives untouched.
  EXPECT_DOUBLE_EQ(updated.scenarios.at("fig1_tuf").at("wall_s").value,
                   0.001);
}

// ------------------------------------------------------------------ runner

int counting_scenario(ScenarioContext& ctx) {
  if (ctx.metrics != nullptr) {
    ctx.metrics->counter("probe.calls").add(42);
    ctx.metrics->gauge("probe.level").set(7.0);
  }
  return 0;
}

int failing_scenario(ScenarioContext&) { return 9; }

TEST(BenchkitRunner, RecordsPerRepetitionCounterDeltas) {
  Scenario scenario{"probe", "", &counting_scenario};
  RunOptions options;
  options.warmup = 2;
  options.repetitions = 3;
  const ScenarioResult result = run_scenario(scenario, options);
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.wall_s.size(), 3U);
  // Each repetition adds 42; warmups must not leak into the delta.
  EXPECT_DOUBLE_EQ(result.counters.at("probe.calls"), 42.0);
}

TEST(BenchkitRunner, PropagatesScenarioFailure) {
  Scenario scenario{"fails", "", &failing_scenario};
  const ScenarioResult result = run_scenario(scenario, RunOptions{});
  EXPECT_EQ(result.exit_code, 9);
}

// --------------------------------------------------------- snapshot delta

TEST(TelemetrySnapshotDelta, SubtractsCountersAndTimers) {
  MetricsRegistry registry;
  registry.counter("evals").add(10);
  registry.timer("phase").add(std::chrono::nanoseconds(2'000'000'000));
  const MetricsSnapshot before = registry.snapshot();
  registry.counter("evals").add(5);
  registry.counter("fresh").add(3);
  registry.gauge("level").set(1.5);
  registry.timer("phase").add(std::chrono::nanoseconds(500'000'000));
  const MetricsSnapshot after = registry.snapshot();

  const MetricsSnapshot delta = snapshot_delta(before, after);
  EXPECT_EQ(delta.counters.at("evals"), 5U);
  EXPECT_EQ(delta.counters.at("fresh"), 3U);
  EXPECT_DOUBLE_EQ(delta.gauges.at("level"), 1.5);
  EXPECT_NEAR(delta.timers.at("phase").seconds, 0.5, 1e-9);
  EXPECT_EQ(delta.timers.at("phase").count, 1U);
}

}  // namespace
}  // namespace eus::benchkit
