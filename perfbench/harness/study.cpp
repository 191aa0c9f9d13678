// The study workload: StudyEngine::run over the paper's five seeded
// populations (N = 100) on dataset 3 (Fig. 6), with the paper's checkpoint
// schedule scaled so that one study takes about 3.3 seconds on a 4-core
// machine.  The schedule is fixed, so evaluation and generation counts and
// the fronts themselves repeat exactly for a seed.
//
// Untraced run: after an untimed one-generation warm-up, for each of
// kDatasets scenarios derived from --seed, set up (scenario, problem,
// engine) several times, then run one study on the last set-up with no
// metrics sink attached.  Work differs between generated scenarios, and
// which population a waiting pool thread picks up varies from run to run;
// run.py reports the fastest study.
// Traced run: additionally times the heuristic seeds and the three
// evaluator paths from the harness on the first scenario, then studies it
// once more with a MetricsRegistry attached and spans around each call,
// between two more untraced studies of it for the tracing overhead.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "core/study.hpp"
#include "core/study_engine.hpp"
#include "harness.hpp"
#include "heuristics/seeds.hpp"
#include "sched/bounds.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {
namespace {

using namespace eus;

constexpr std::size_t kDatasets = 5;

/// The scenario seeds of one run: kDatasets scenarios derived from --seed,
/// so a run's figures average over several generated inputs.
std::uint64_t dataset_seed(std::uint64_t seed, std::size_t r) {
  return seed * kDatasets + r;
}

// The Fig. 6 schedule (1k..1M iterations) and the factor that brings one
// study to about 3.3 seconds.
const std::vector<std::size_t> kPaperIters = {1000, 10000, 100000, 1000000};
constexpr double kScale = 0.00035;

Nsga2Config study_config(std::uint64_t seed) {
  Nsga2Config config;
  config.population_size = 100;
  config.mutation_probability = 0.25;
  config.seed = seed;
  return config;
}

/// One timed set-up: scenario generation, problem construction, engine
/// construction (the engine spins up its thread pool).
struct Setup {
  std::optional<Scenario> scenario;
  std::optional<UtilityEnergyProblem> problem;
  std::optional<StudyEngine> engine;
  double workload_s = 0.0;
  double sched_s = 0.0;
  double engine_s = 0.0;
};

void set_up(Setup& s, std::uint64_t seed, std::size_t threads,
            Tracer& tracer, MetricsRegistry* metrics) {
  const std::int64_t root = tracer.begin("setup");
  double t = now_s();
  const std::int64_t w = tracer.begin("workload.build", root);
  s.scenario.emplace(make_dataset3(seed));
  tracer.end(w);
  s.workload_s = now_s() - t;

  t = now_s();
  const std::int64_t p = tracer.begin("sched.build", root);
  EvaluatorOptions evaluator_options;
  evaluator_options.metrics = metrics;
  s.problem.emplace(s.scenario->system, s.scenario->trace,
                    std::move(evaluator_options));
  tracer.end(p);
  s.sched_s = now_s() - t;

  t = now_s();
  const std::int64_t e = tracer.begin("core.engine_build", root);
  StudyEngineConfig engine_config;
  engine_config.threads = threads;
  engine_config.metrics = metrics;
  s.engine.emplace(engine_config);
  tracer.end(e);
  s.engine_s = now_s() - t;
  tracer.end(root);
}

struct StudyRun {
  StudyResult result;
  double study_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> pop_finish_s;
};

StudyRun run_once(Setup& s, std::uint64_t seed,
                  const std::vector<std::size_t>& checkpoints,
                  Tracer& tracer) {
  const std::vector<PopulationSpec> specs = paper_population_specs();
  std::map<std::string, double> finished;  // the engine serializes progress
  StudyRun run;
  const std::int64_t span = tracer.begin("study.run");
  const double t0 = now_s();
  const double cpu0 = cpu_s();
  run.result = s.engine->run(
      *s.problem, study_config(seed), checkpoints, specs,
      [&](const std::string& name, std::size_t iterations) {
        if (iterations == checkpoints.back()) finished[name] = now_s();
      });
  run.study_s = now_s() - t0;
  run.cpu_s = cpu_s() - cpu0;
  tracer.end(span);
  for (const PopulationSpec& spec : specs) {
    const double end = finished.count(spec.name) ? finished[spec.name] : now_s();
    run.pop_finish_s.push_back(end - t0);
    tracer.add("population." + spec.name, span, t0, end);
  }
  return run;
}

std::string study_run_json(const StudyRun& run,
                           const MetricsRegistry* metrics) {
  std::vector<std::string> pops;
  for (const auto& per_checkpoint : run.result.fronts) {
    std::vector<std::string> fronts;
    for (const auto& front : per_checkpoint) fronts.push_back(front_json(front));
    pops.push_back(json_array(fronts));
  }
  JsonObject o;
  o.field("study_s", run.study_s);
  o.field("cpu_s", run.cpu_s);
  o.raw("pop_finish_s", json_numbers(run.pop_finish_s));
  o.raw("fronts", json_array(pops));
  if (metrics != nullptr) {
    const MetricsSnapshot snap = metrics->snapshot();
    o.raw("counters", counters_json(snap));
    o.raw("timers", timers_json(snap));
  }
  return o.str();
}

}  // namespace

std::string run_study(const Options& options) {
  const std::vector<std::size_t> checkpoints =
      scaled_checkpoints(kPaperIters, kScale);
  Tracer untraced(false);
  const std::size_t setups_each = (options.setups + kDatasets - 1) / kDatasets;
  {
    // Untimed warm-up: the first study in a process runs slower (page
    // faults, clock ramp-up) than any later one.
    Setup warm;
    set_up(warm, dataset_seed(options.seed, 0), options.threads,
           untraced, nullptr);
    (void)run_once(warm, dataset_seed(options.seed, 0), {1}, untraced);
  }

  std::vector<std::string> datasets;
  std::size_t threads = 0;
  for (std::size_t r = 0; r < kDatasets; ++r) {
    const std::uint64_t seed = dataset_seed(options.seed, r);
    std::vector<std::string> setups;
    Setup setup;
    for (std::size_t i = 0; i < setups_each; ++i) {
      setup.engine.reset();
      setup.problem.reset();
      setup.scenario.reset();
      const double t = now_s();
      set_up(setup, seed, options.threads, untraced, nullptr);
      JsonObject o;
      o.field("total_s", now_s() - t);
      o.field("workload_s", setup.workload_s);
      o.field("sched_s", setup.sched_s);
      o.field("engine_s", setup.engine_s);
      setups.push_back(o.str());
    }
    const ObjectiveBounds bounds =
        compute_bounds(setup.scenario->system, setup.scenario->trace);
    const StudyRun run = run_once(setup, seed, checkpoints, untraced);
    threads = setup.engine->threads();

    JsonObject d;
    d.field("seed", seed);
    d.field("tasks", static_cast<std::uint64_t>(setup.scenario->trace.size()));
    d.field("machines",
            static_cast<std::uint64_t>(setup.scenario->system.num_machines()));
    d.field("energy_lower", bounds.energy_lower);
    d.field("utility_upper", bounds.utility_upper_contention_free);
    d.raw("setups", json_array(setups));
    d.raw("run", study_run_json(run, nullptr));
    datasets.push_back(d.str());
  }

  JsonObject o;
  o.field("workload", options.workload);
  o.field("seed", options.seed);
  o.field("threads", static_cast<std::uint64_t>(threads));
  o.raw("checkpoints", json_numbers({checkpoints.begin(), checkpoints.end()}));
  o.raw("datasets", json_array(datasets));

  if (options.trace) {
    // The first scenario again, traced, between two untraced studies of it,
    // so that drift of the machine falls on both sides of the tracing
    // overhead alike.  Its fronts must match the untraced study's bit for
    // bit.
    const std::uint64_t seed = dataset_seed(options.seed, 0);
    Tracer tracer(true);
    MetricsRegistry metrics;
    Setup traced;
    set_up(traced, seed, options.threads, tracer, &metrics);
    o.raw("seed_ms", seed_timings(*traced.scenario, tracer));
    o.raw("evaluator", evaluator_timings(*traced.scenario, seed, tracer));
    Setup plain;
    set_up(plain, seed, options.threads, untraced, nullptr);
    std::vector<double> untraced_cpu_s;
    untraced_cpu_s.push_back(run_once(plain, seed, checkpoints, untraced).cpu_s);
    const StudyRun run = run_once(traced, seed, checkpoints, tracer);
    untraced_cpu_s.push_back(run_once(plain, seed, checkpoints, untraced).cpu_s);
    o.raw("traced", study_run_json(run, &metrics));
    o.raw("untraced_cpu_s", json_numbers(untraced_cpu_s));
    o.raw("spans", tracer.json());
  }
  o.field("peak_rss_mib", peak_rss_mib());
  return o.str();
}

}  // namespace perfbench
