// Randomized differential suite for the incremental delta-evaluator: the
// full simulator is the oracle, and every delta-path result — across option
// modes, fallback flavors, sort paths, and execution modes — must match it
// bit for bit (see docs/evaluator.md for the contract).  The min-min
// per-type-heap collapse is held to the same standard against a textbook
// O(T^2 M) reference.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/nsga2.hpp"
#include "core/problem.hpp"
#include "data/historical.hpp"
#include "heuristics/seeds.hpp"
#include "sched/dvfs.hpp"
#include "sched/evaluator.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "workload/scenarios.hpp"

namespace eus {
namespace {

void expect_bit_identical(const Evaluation& a, const Evaluation& b) {
  // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-identity, not
  // closeness.  (No NaNs are produced, so == is exact equality.)
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.idle_energy, b.idle_energy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.dropped, b.dropped);
}

void expect_states_equal(const EvalState& a, const EvalState& b) {
  ASSERT_EQ(a.machines.size(), b.machines.size());
  for (std::size_t m = 0; m < a.machines.size(); ++m) {
    EXPECT_EQ(a.machines[m], b.machines[m]) << "machine " << m;
  }
}

Allocation random_valid_allocation(const SystemModel& sys,
                                   const Trace& trace, Rng& rng,
                                   std::size_t num_pstates) {
  const std::size_t n = trace.size();
  Allocation a;
  a.machine.resize(n);
  a.order.resize(n);
  if (num_pstates > 0) a.pstate.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& eligible = sys.eligible_machines(trace.tasks()[i].type);
    a.machine[i] = eligible[rng.below(eligible.size())];
    a.order[i] = static_cast<int>(rng.below(n));
    if (num_pstates > 0) {
      a.pstate[i] = static_cast<int>(rng.below(num_pstates));
    }
  }
  return a;
}

/// Mutates `genes` random genes of a copy of `parent`, returning the child
/// and appending every edited index to `touched` — plus the occasional
/// listed-but-unchanged gene and duplicate, both of which the contract
/// explicitly allows.
Allocation mutate_genes(const Allocation& parent, const SystemModel& sys,
                        const Trace& trace, Rng& rng, std::size_t genes,
                        std::size_t num_pstates,
                        std::vector<std::uint32_t>& touched) {
  Allocation child = parent;
  const std::size_t n = parent.machine.size();
  for (std::size_t k = 0; k < genes; ++k) {
    const auto g = static_cast<std::uint32_t>(rng.below(n));
    switch (rng.below(num_pstates > 0 ? 4 : 3)) {
      case 0: {
        const auto& eligible =
            sys.eligible_machines(trace.tasks()[g].type);
        child.machine[g] = eligible[rng.below(eligible.size())];
        break;
      }
      case 1:
        child.order[g] = static_cast<int>(rng.below(n));
        break;
      case 2:
        // Listed but unchanged: touched may be a superset of the diff.
        break;
      default:
        child.pstate[g] = static_cast<int>(rng.below(num_pstates));
        break;
    }
    touched.push_back(g);
    if (rng.chance(0.2)) touched.push_back(g);  // duplicates are allowed
  }
  return child;
}

struct OptionVariant {
  std::string name;
  EvaluatorOptions options;
};

std::vector<OptionVariant> option_variants(const SystemModel& sys) {
  std::vector<OptionVariant> variants;
  variants.push_back({"plain", {}});

  EvaluatorOptions drop;
  drop.drop_worthless_tasks = true;
  drop.drop_threshold = 5.0;
  variants.push_back({"dropping", drop});

  EvaluatorOptions dvfs;
  dvfs.dvfs = make_cubic_dvfs({1.0, 0.8, 0.6});
  variants.push_back({"dvfs", dvfs});

  EvaluatorOptions idle;
  idle.idle_watts.resize(sys.num_machine_types());
  for (std::size_t t = 0; t < idle.idle_watts.size(); ++t) {
    idle.idle_watts[t] = 5.0 + 2.0 * static_cast<double>(t);
  }
  variants.push_back({"idle-watts", idle});

  EvaluatorOptions all = drop;
  all.dvfs = dvfs.dvfs;
  all.idle_watts = idle.idle_watts;
  variants.push_back({"all-options", all});
  return variants;
}

std::size_t pstates_of(const EvaluatorOptions& options) {
  return options.dvfs ? options.dvfs->size() : 0;
}

TEST(EvaluatorDifferential, DeltaMatchesFullOracleAcrossOptionModes) {
  const Scenario scenario = make_dataset1(11);
  for (const OptionVariant& variant : option_variants(scenario.system)) {
    SCOPED_TRACE(variant.name);
    const Evaluator ev(scenario.system, scenario.trace, variant.options);
    const std::size_t num_pstates = pstates_of(variant.options);
    Rng rng(42);
    for (int round = 0; round < 25; ++round) {
      const Allocation parent = random_valid_allocation(
          scenario.system, scenario.trace, rng, num_pstates);
      EvalState parent_state;
      ev.evaluate(parent, parent_state);

      std::vector<std::uint32_t> touched;
      const Allocation child =
          mutate_genes(parent, scenario.system, scenario.trace, rng,
                       1 + rng.below(10), num_pstates, touched);

      EvalState delta_state;
      const Evaluation delta = ev.evaluate_incremental(
          child, parent, parent_state, touched, delta_state);

      EvalState oracle_state;
      const Evaluation oracle = ev.evaluate(child, oracle_state);
      expect_bit_identical(delta, oracle);
      expect_states_equal(delta_state, oracle_state);

      // trusted_child rides the same structural-validity contract.
      EvalState trusted_state;
      const Evaluation trusted = ev.evaluate_incremental(
          child, parent, parent_state, touched, trusted_state,
          /*trusted_child=*/true);
      expect_bit_identical(trusted, oracle);
      expect_states_equal(trusted_state, oracle_state);
    }
  }
}

TEST(EvaluatorDifferential, LargeDeltaFallsBackAndStaysExact) {
  const Scenario scenario = make_dataset1(12);
  MetricsRegistry metrics;
  EvaluatorOptions options;
  options.metrics = &metrics;
  const Evaluator ev(scenario.system, scenario.trace, options);
  Counter& hits = metrics.counter("evaluator.incremental.hits");
  Counter& fallbacks = metrics.counter("evaluator.incremental.fallbacks");
  Rng rng(7);
  const Allocation parent =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  EvalState parent_state;
  ev.evaluate(parent, parent_state);

  // Touch ~80% of the genome: past T/2 the delta path must bail to the
  // full simulator, still filling out_state.
  std::vector<std::uint32_t> touched;
  const std::size_t n = scenario.trace.size();
  const Allocation child =
      mutate_genes(parent, scenario.system, scenario.trace, rng,
                   (n * 4) / 5, 0, touched);

  EvalState delta_state;
  const Evaluation delta = ev.evaluate_incremental(child, parent,
                                                   parent_state, touched,
                                                   delta_state);
  EvalState oracle_state;
  const Evaluation oracle = ev.evaluate(child, oracle_state);
  expect_bit_identical(delta, oracle);
  expect_states_equal(delta_state, oracle_state);
  EXPECT_EQ(hits.value(), 0U);
  EXPECT_EQ(fallbacks.value(), 1U);

  // Just past T/2 and the whole genome, validated and trusted: each large
  // delta is exactly one fallback and no hit, and stays exact.
  for (const std::size_t genes : {n / 2 + 1, n}) {
    for (const bool trusted : {false, true}) {
      SCOPED_TRACE("genes=" + std::to_string(genes) +
                   (trusted ? " trusted" : " validated"));
      const Allocation p =
          random_valid_allocation(scenario.system, scenario.trace, rng, 0);
      EvalState p_state;
      ev.evaluate(p, p_state);
      std::vector<std::uint32_t> t;
      const Allocation c =
          mutate_genes(p, scenario.system, scenario.trace, rng, genes, 0, t);
      ASSERT_GT(t.size() * 2, n);
      const std::uint64_t fallbacks_before = fallbacks.value();
      EvalState c_state;
      const Evaluation e =
          ev.evaluate_incremental(c, p, p_state, t, c_state, trusted);
      EvalState c_oracle_state;
      expect_bit_identical(e, ev.evaluate(c, c_oracle_state));
      expect_states_equal(c_state, c_oracle_state);
      EXPECT_EQ(hits.value(), 0U);
      EXPECT_EQ(fallbacks.value(), fallbacks_before + 1);
    }
  }

  // A large delta still validates every touched gene: an ineligible one
  // throws unless the child is trusted, and an out-of-range index always
  // throws.  Dataset 2 has special-purpose machines, hence ineligibility.
  const Scenario special = make_dataset2(12);
  const Evaluator sev(special.system, special.trace);
  const std::size_t sn = special.trace.size();
  const Allocation sp =
      random_valid_allocation(special.system, special.trace, rng, 0);
  EvalState sp_state;
  sev.evaluate(sp, sp_state);
  std::vector<std::uint32_t> st;
  Allocation sc =
      mutate_genes(sp, special.system, special.trace, rng, sn / 2 + 1, 0, st);
  ASSERT_GT(st.size() * 2, sn);
  std::vector<std::uint32_t> out_of_range = st;
  out_of_range.push_back(static_cast<std::uint32_t>(sn));
  for (const bool trusted : {false, true}) {
    EvalState out;
    EXPECT_THROW((void)sev.evaluate_incremental(sc, sp, sp_state,
                                                out_of_range, out, trusted),
                 std::invalid_argument);
  }
  bool planted = false;
  for (std::size_t g = 0; g < sn && !planted; ++g) {
    const std::size_t type = special.trace.tasks()[g].type;
    for (std::size_t m = 0; m < special.system.num_machines(); ++m) {
      if (!special.system.eligible(type, m)) {
        sc.machine[g] = static_cast<int>(m);
        st.push_back(static_cast<std::uint32_t>(g));
        planted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(planted) << "dataset 2 has no ineligible task/machine pair";
  EvalState out;
  EXPECT_THROW(
      (void)sev.evaluate_incremental(sc, sp, sp_state, st, out),
      std::invalid_argument);
}

TEST(EvaluatorDifferential, InvalidParentStateFallsBack) {
  const Scenario scenario = make_dataset1(13);
  const Evaluator ev(scenario.system, scenario.trace);
  Rng rng(9);
  const Allocation parent =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  std::vector<std::uint32_t> touched;
  const Allocation child = mutate_genes(parent, scenario.system,
                                        scenario.trace, rng, 3, 0, touched);

  const EvalState empty_state;  // default-constructed == invalid
  EvalState out_state;
  const Evaluation via_fallback = ev.evaluate_incremental(
      child, parent, empty_state, touched, out_state);
  EvalState oracle_state;
  const Evaluation oracle = ev.evaluate(child, oracle_state);
  expect_bit_identical(via_fallback, oracle);
  expect_states_equal(out_state, oracle_state);
}

TEST(EvaluatorDifferential, ComparisonSortPathMatchesCountingSort) {
  // Orders outside [0, T) force the comparison-sort fallback; shifting
  // every order by a constant preserves ranks, so objectives must be
  // bit-identical to the counting-sorted original.
  const Scenario scenario = make_dataset1(15);
  const Evaluator ev(scenario.system, scenario.trace);
  Rng rng(33);
  const Allocation base =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  EvalState base_state;
  const Evaluation counted = ev.evaluate(base, base_state);

  const auto n = static_cast<int>(scenario.trace.size());
  Allocation shifted_up = base;
  Allocation shifted_down = base;
  for (std::size_t i = 0; i < base.order.size(); ++i) {
    shifted_up.order[i] = base.order[i] + 10 * n;
    shifted_down.order[i] = base.order[i] - 10 * n;
  }
  EvalState up_state;
  EvalState down_state;
  expect_bit_identical(counted, ev.evaluate(shifted_up, up_state));
  expect_bit_identical(counted, ev.evaluate(shifted_down, down_state));
  expect_states_equal(base_state, up_state);
  expect_states_equal(base_state, down_state);
}

TEST(EvaluatorDifferential, TrustedEvaluationMatchesValidated) {
  const Scenario scenario = make_dataset1(16);
  for (const OptionVariant& variant : option_variants(scenario.system)) {
    SCOPED_TRACE(variant.name);
    const Evaluator ev(scenario.system, scenario.trace, variant.options);
    Rng rng(5);
    const Allocation a = random_valid_allocation(
        scenario.system, scenario.trace, rng, pstates_of(variant.options));
    EvalState validated;
    EvalState trusted;
    expect_bit_identical(ev.evaluate(a, validated),
                         ev.evaluate_trusted(a, trusted));
    expect_states_equal(validated, trusted);
  }
}

TEST(EvaluatorDifferential, FlattenedTufReplayMatchesTufObjects) {
  // The evaluator's span-table replay (including the precomputed
  // exponential log-ratio) must reproduce TimeUtilityFunction::value
  // exactly — the TUF objects are an independent implementation.
  const Scenario scenario = make_dataset2(17);
  const Evaluator ev(scenario.system, scenario.trace);
  Rng rng(3);
  const Allocation a =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  const auto [total, outcomes] = ev.detail(a);
  ASSERT_EQ(outcomes.size(), scenario.trace.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].dropped) continue;
    const double elapsed =
        outcomes[i].finish - scenario.trace.tasks()[i].arrival;
    EXPECT_EQ(outcomes[i].utility, scenario.trace.tuf_of(i).value(elapsed))
        << "task " << i;
  }
}

TEST(EvaluatorDifferential, TelemetryCountsHitsAndFallbacks) {
  const Scenario scenario = make_dataset1(18);
  MetricsRegistry metrics;
  EvaluatorOptions options;
  options.metrics = &metrics;
  const Evaluator ev(scenario.system, scenario.trace, options);
  Counter& hits = metrics.counter("evaluator.incremental.hits");
  Counter& fallbacks = metrics.counter("evaluator.incremental.fallbacks");
  Counter& machines =
      metrics.counter("evaluator.incremental.machines_resimulated");

  Rng rng(8);
  const Allocation parent =
      random_valid_allocation(scenario.system, scenario.trace, rng, 0);
  EvalState parent_state;
  ev.evaluate(parent, parent_state);

  // Small delta -> hit, with at least one machine re-simulated.
  std::vector<std::uint32_t> touched;
  const Allocation child = mutate_genes(parent, scenario.system,
                                        scenario.trace, rng, 2, 0, touched);
  EvalState out;
  ev.evaluate_incremental(child, parent, parent_state, touched, out);
  EXPECT_EQ(hits.value(), 1U);
  EXPECT_EQ(fallbacks.value(), 0U);
  EXPECT_GE(machines.value(), 1U);

  // Invalid parent state -> fallback.
  const EvalState empty_state;
  ev.evaluate_incremental(child, parent, empty_state, touched, out);
  EXPECT_EQ(hits.value(), 1U);
  EXPECT_EQ(fallbacks.value(), 1U);
}

using OrderDraw = std::function<int(Rng&)>;

/// Holds the delta path to the full simulator, validating and trusted, on
/// every Evaluation field and MachinePartial: `rounds` random parent/child
/// pairs of 1..max_genes touched genes per option variant.  The delta path
/// must hit at least once per variant.
/// `parent_order` redraws every parent order gene and `child_order` every
/// touched gene's child order (null keeps the [0, T) draws).
void expect_delta_oracle_on(const Scenario& scenario, int rounds,
                            std::size_t max_genes,
                            const OrderDraw& parent_order = {},
                            const OrderDraw& child_order = {}) {
  for (const OptionVariant& variant : option_variants(scenario.system)) {
    SCOPED_TRACE(variant.name);
    MetricsRegistry metrics;
    EvaluatorOptions options = variant.options;
    options.metrics = &metrics;
    const Evaluator ev(scenario.system, scenario.trace, options);
    const std::size_t num_pstates = pstates_of(options);
    Rng rng(42);
    for (int round = 0; round < rounds; ++round) {
      Allocation parent = random_valid_allocation(
          scenario.system, scenario.trace, rng, num_pstates);
      if (parent_order) {
        for (int& o : parent.order) o = parent_order(rng);
      }
      EvalState parent_state;
      ev.evaluate(parent, parent_state);

      std::vector<std::uint32_t> touched;
      Allocation child =
          mutate_genes(parent, scenario.system, scenario.trace, rng,
                       1 + rng.below(max_genes), num_pstates, touched);
      if (child_order) {
        for (const std::uint32_t g : touched) child.order[g] = child_order(rng);
      }
      EvalState oracle_state;
      const Evaluation oracle = ev.evaluate(child, oracle_state);
      // trusted_child rides the same structural-validity contract.
      for (const bool trusted : {false, true}) {
        SCOPED_TRACE(trusted ? "trusted" : "validated");
        EvalState delta_state;
        expect_bit_identical(
            ev.evaluate_incremental(child, parent, parent_state, touched,
                                    delta_state, trusted),
            oracle);
        expect_states_equal(delta_state, oracle_state);
      }
    }
    EXPECT_GT(metrics.counter("evaluator.incremental.hits").value(), 0U);
  }
}

TEST(EvaluatorDifferential, DeltaMatchesFullOnDataset3TwoRadixDigits) {
  const Scenario scenario = make_dataset3(21);
  ASSERT_EQ(scenario.trace.size(), 4000U);
  expect_delta_oracle_on(scenario, 8, 4);
}

TEST(EvaluatorDifferential, DeltaMatchesFullBeyondTwoRadixDigits) {
  // T > 65536 orders need a third 8-bit digit.
  const Scenario scenario = make_custom_scenario(
      "three-digits", historical_system(), 70000, 3600.0, 22);
  expect_delta_oracle_on(scenario, 3, 2);
}

TEST(EvaluatorDifferential, DeltaOrdersOutsideRangeTakeComparisonSort) {
  // A touched order below 0 or at/after T sends the dirty machines' tasks
  // through the comparison sort, the full path's out-of-range branch.
  const Scenario scenario = make_dataset3(23);
  const std::size_t n = scenario.trace.size();
  expect_delta_oracle_on(scenario, 8, 4, {}, [n](Rng& rng) {
    const auto offset = static_cast<int>(rng.below(n));
    return rng.chance(0.5) ? -1 - offset : static_cast<int>(n) + offset;
  });
}

TEST(EvaluatorDifferential, DeltaBreaksEqualOrdersByIndex) {
  // Five distinct orders over 4000 tasks: almost every task ties, so the
  // sequence rests on the index tie-break.
  const Scenario scenario = make_dataset3(24);
  const std::vector<std::vector<int>> order_sets = {
      {0, 1, 255, 256, 3999},    // spread across both radix digits
      {-1, 0, 256, 3999, 4000},  // out of range: the comparison sort
  };
  for (const std::vector<int>& orders : order_sets) {
    const OrderDraw few_orders = [&orders](Rng& rng) {
      return orders[rng.below(orders.size())];
    };
    expect_delta_oracle_on(scenario, 8, 4, few_orders, few_orders);
  }
}

/// Generation observer holding NSGA-II to the full simulator: every
/// individual's objectives and EvalState — however the optimizer scored it
/// (clone, delta or full path) — must bit-equal a fresh validating
/// Evaluator::evaluate(genome, state) mapped through objectives_of.  Since
/// selection reads only objectives and RNG draws, this pins every front.
GenerationObserver delta_oracle(const BiObjectiveProblem& problem,
                                std::size_t& generations_checked) {
  return [&problem, &generations_checked](
             std::size_t generation,
             const std::vector<Individual>& population) {
    SCOPED_TRACE("generation " + std::to_string(generation));
    for (std::size_t k = 0; k < population.size(); ++k) {
      const Individual& ind = population[k];
      EvalState oracle_state;
      const EUPoint oracle = problem.objectives_of(
          problem.evaluator().evaluate(ind.genome, oracle_state));
      EXPECT_EQ(ind.objectives.energy, oracle.energy) << "individual " << k;
      EXPECT_EQ(ind.objectives.utility, oracle.utility) << "individual " << k;
      expect_states_equal(ind.state, oracle_state);
    }
    ++generations_checked;
  };
}

Nsga2Config oracle_config(std::size_t threads) {
  Nsga2Config config;
  config.population_size = 16;
  config.threads = threads;
  config.seed = 123;
  return config;
}

/// Runs NSGA-II under the delta oracle and returns its final front; the
/// delta path must have been taken at least once.
template <typename Problem>
std::vector<EUPoint> oracle_checked_front(const Scenario& scenario,
                                          EvaluatorOptions options,
                                          std::size_t threads) {
  MetricsRegistry metrics;
  options.metrics = &metrics;
  const Problem problem(scenario.system, scenario.trace, std::move(options));
  Nsga2 algorithm(problem, oracle_config(threads));
  std::size_t generations_checked = 0;
  algorithm.set_observer(delta_oracle(problem, generations_checked));
  algorithm.initialize({});
  algorithm.iterate(5);
  EXPECT_EQ(generations_checked, 5U);
  EXPECT_GT(metrics.snapshot().counters.at("evaluator.incremental.hits"), 0U);
  return algorithm.front_points();
}

/// The oracle over the paper's plain model and over DVFS + dropping + idle
/// watts together, serial and pooled.
template <typename Problem>
void expect_delta_oracle_holds(std::uint64_t scenario_seed) {
  const Scenario scenario = make_dataset1(scenario_seed);
  for (const OptionVariant& variant : option_variants(scenario.system)) {
    if (variant.name != "plain" && variant.name != "all-options") continue;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(variant.name + " threads=" + std::to_string(threads));
      EXPECT_FALSE(
          oracle_checked_front<Problem>(scenario, variant.options, threads)
              .empty());
    }
  }
}

TEST(DeltaOracle, UtilityEnergyMatchesFullSimulationEveryGeneration) {
  expect_delta_oracle_holds<UtilityEnergyProblem>(19);
}

TEST(DeltaOracle, MakespanEnergyMatchesFullSimulationEveryGeneration) {
  expect_delta_oracle_holds<MakespanEnergyProblem>(20);
}

TEST(EvaluatorDifferential, FrontsInvariantAcrossExecutionModes) {
  // The same seed must yield bit-identical fronts whether a generation's
  // batch is evaluated in a plain loop (serial) or on a pool: the evaluator
  // is a pure function and neither schedule may perturb it.  The reference run is held to the full
  // simulator every generation by the delta oracle.
  const Scenario scenario = make_dataset1(19);
  const std::vector<EUPoint> reference =
      oracle_checked_front<UtilityEnergyProblem>(scenario, {}, 1);
  ASSERT_FALSE(reference.empty());

  const UtilityEnergyProblem problem(scenario.system, scenario.trace);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Nsga2 algorithm(problem, oracle_config(threads));
    algorithm.initialize({});
    algorithm.iterate(5);
    EXPECT_EQ(algorithm.front_points(), reference);
  }
}

/// Textbook O(T^2 M) min-min: every step recomputes each unmapped task's
/// best completion over its eligible machines, then maps the (completion,
/// index)-minimal task.  The production per-type-heap version must
/// reproduce this allocation exactly.
Allocation min_min_reference(const SystemModel& system, const Trace& trace) {
  const std::size_t tasks = trace.size();
  Allocation a;
  a.machine.assign(tasks, -1);
  a.order.assign(tasks, 0);
  std::vector<double> available(system.num_machines(), 0.0);
  std::vector<bool> mapped(tasks, false);
  for (std::size_t step = 0; step < tasks; ++step) {
    std::size_t pick = tasks;
    int pick_machine = -1;
    double pick_completion = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < tasks; ++i) {
      if (mapped[i]) continue;
      const auto& task = trace.tasks()[i];
      int choice = -1;
      double completion = std::numeric_limits<double>::infinity();
      for (const int m : system.eligible_machines(task.type)) {
        const auto mi = static_cast<std::size_t>(m);
        const double start = std::max(available[mi], task.arrival);
        const double finish = start + system.etc_on(task.type, mi);
        if (finish < completion) {
          completion = finish;
          choice = m;
        }
      }
      if (completion < pick_completion) {
        pick_completion = completion;
        pick = i;
        pick_machine = choice;
      }
    }
    mapped[pick] = true;
    a.machine[pick] = pick_machine;
    a.order[pick] = static_cast<int>(step);
    available[static_cast<std::size_t>(pick_machine)] = pick_completion;
  }
  return a;
}

TEST(EvaluatorDifferential, MinMinHeapsMatchQuadraticReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario scenario = make_dataset1(seed);
    const Allocation fast =
        min_min_completion_time_allocation(scenario.system, scenario.trace);
    const Allocation slow =
        min_min_reference(scenario.system, scenario.trace);
    EXPECT_EQ(fast.machine, slow.machine);
    EXPECT_EQ(fast.order, slow.order);
  }
  // Once on the expanded 30-machine suite, where several machine types
  // have multiple instances (the per-type collapse's interesting case).
  const Scenario scenario = make_dataset2(4);
  const Allocation fast =
      min_min_completion_time_allocation(scenario.system, scenario.trace);
  const Allocation slow = min_min_reference(scenario.system, scenario.trace);
  EXPECT_EQ(fast.machine, slow.machine);
  EXPECT_EQ(fast.order, slow.order);
}

}  // namespace
}  // namespace eus
