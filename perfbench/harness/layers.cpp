// Layer micro-timings shared by every workload's traced run: the four
// heuristic seeds and the evaluator's full, trusted and delta paths, timed
// from the harness on one scenario.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/operators.hpp"
#include "core/problem.hpp"
#include "harness.hpp"
#include "heuristics/seeds.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace eus;

/// Times `body` over whole repetitions until `budget_s` has elapsed;
/// returns seconds per repetition.
template <typename Body>
double time_per_rep(double budget_s, Body&& body) {
  std::size_t reps = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    body();
    ++reps;
    elapsed = now_s() - t0;
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(reps);
}

}  // namespace

/// Heuristic seed construction, each timed on its own (median of reps).
std::string seed_timings(const Scenario& scenario, Tracer& tracer) {
  JsonObject o;
  for (const SeedHeuristic h : all_seed_heuristics()) {
    std::vector<double> samples;
    const double t_begin = now_s();
    while (samples.size() < 3 || (now_s() - t_begin < 0.2 && samples.size() < 50)) {
      const double t = now_s();
      const Allocation seed = make_seed(h, scenario.system, scenario.trace);
      samples.push_back(now_s() - t);
      tracer.add(std::string("heuristics.seed.") + to_string(h), -1, t, now_s());
      if (seed.size() != scenario.trace.size()) {
        throw std::runtime_error("heuristic seed has the wrong genome size");
      }
    }
    o.field(to_string(h), median(samples) * 1e3);
  }
  return o.str();
}

/// Nanoseconds per simulated task on the evaluator's full, trusted and
/// delta paths.  Parents are the four heuristic seeds plus random
/// allocations; children come from crossover + collect_touched + mutate,
/// the way Nsga2 builds offspring.
std::string evaluator_timings(const Scenario& scenario, std::uint64_t seed,
                              Tracer& tracer) {
  const UtilityEnergyProblem problem(scenario.system, scenario.trace);
  const Evaluator& evaluator = problem.evaluator();
  Rng rng(seed ^ 0x5bd1e995ULL);
  std::vector<Allocation> parents;
  for (const SeedHeuristic h : all_seed_heuristics()) {
    parents.push_back(make_seed(h, scenario.system, scenario.trace));
  }
  for (int i = 0; i < 4; ++i) parents.push_back(random_allocation(problem, rng));
  std::vector<EvalState> parent_states(parents.size());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    (void)evaluator.evaluate(parents[i], parent_states[i]);
  }

  struct Child {
    Allocation genome;
    std::size_t parent = 0;
    std::vector<std::uint32_t> touched;
  };
  std::vector<Child> children;
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < parents.size(); ++i) {
      const std::size_t j = (i + 1 + static_cast<std::size_t>(round)) % parents.size();
      Child a{parents[i], i, {}};
      Allocation b = parents[j];
      CrossoverSegment segment;
      crossover(a.genome, b, rng, &segment);
      if (segment.swapped) {
        collect_touched(a.genome, parents[i], segment.lo, segment.hi, a.touched);
      }
      mutate(a.genome, problem, rng, &a.touched);
      children.push_back(std::move(a));
    }
  }

  const double tasks = static_cast<double>(scenario.trace.size());
  double checksum = 0.0;
  EvalState scratch;
  const auto timed = [&](const char* name, auto&& body) {
    const double t = now_s();
    const double per_rep = time_per_rep(0.15, body);
    tracer.add(name, -1, t, now_s());
    return per_rep;
  };
  const double full = timed("sched.evaluate", [&] {
    for (const Allocation& a : parents) checksum += evaluator.evaluate(a).energy;
  });
  const double trusted = timed("sched.evaluate_trusted", [&] {
    for (const Allocation& a : parents) {
      checksum += evaluator.evaluate_trusted(a, scratch).energy;
    }
  });
  const double delta = timed("sched.evaluate_incremental", [&] {
    for (const Child& c : children) {
      checksum += evaluator
                      .evaluate_incremental(c.genome, parents[c.parent],
                                            parent_states[c.parent], c.touched,
                                            scratch, true)
                      .energy;
    }
  });
  if (!(checksum > 0.0)) throw std::runtime_error("evaluator returned no energy");

  const double n_parents = static_cast<double>(parents.size());
  const double n_children = static_cast<double>(children.size());
  JsonObject o;
  o.field("full_ns_per_task", full / n_parents / tasks * 1e9);
  o.field("trusted_ns_per_task", trusted / n_parents / tasks * 1e9);
  o.field("delta_ns_per_task", delta / n_children / tasks * 1e9);
  return o.str();
}

}  // namespace perfbench
