#pragma once

// The adapted NSGA-II of §IV-D / Algorithm 1:
//
//   1. start from a population of N chromosomes (optionally seeded with
//      greedy-heuristic allocations, §V-B);
//   2. each generation: N/2 uniformly-paired crossovers produce N
//      offspring, each offspring mutates with a configured probability;
//   3. parents + offspring merge into a 2N meta-population, which is
//      nondominated-sorted; whole ranks fill the next parent population and
//      the cut rank is truncated by crowding distance (elitism for free).
//
// Each generation builds all N offspring first and then evaluates them as
// one batch, on a thread pool when there is one.  Everything is
// deterministic for a fixed seed at any thread count (offspring are
// generated serially; only fitness evaluation — a pure function — is
// parallel).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/problem.hpp"
#include "sched/allocation.hpp"
#include "sched/eval_state.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace eus {

/// How crossover parents are picked from the population.
enum class SelectionMode {
  /// The paper's §IV-D choice: two distinct chromosomes uniformly at
  /// random.
  kUniform,
  /// Deb's original NSGA-II binary tournament by crowded comparison
  /// (lower rank wins; ties broken by larger crowding distance).
  kCrowdedTournament,
};

struct Nsga2Config {
  /// N: chromosomes per population (must be even and >= 2; paper uses 100).
  std::size_t population_size = 100;
  /// Parent selection (paper default; see bench_ablation_selection).
  SelectionMode selection = SelectionMode::kUniform;
  /// Probability that a fresh offspring is mutated ("selected by
  /// experimentation" in the paper; see bench_ablation_mutation).
  double mutation_probability = 0.25;
  /// Encoding ablation: restore order genes to a strict 0..T-1 permutation
  /// after every crossover/mutation (see DESIGN.md).
  bool repair_order_permutation = false;
  /// Disable the crowding-distance truncation (ablation): the cut rank is
  /// then truncated in ascending-energy order instead.
  bool use_crowding = true;
  /// Worker threads for fitness evaluation; 0 = hardware concurrency,
  /// 1 = evaluate serially (no pool).  Ignored when `shared_pool` is set.
  std::size_t threads = 1;
  /// Externally owned pool shared across algorithm instances (e.g. the
  /// StudyEngine's, which also runs whole populations on it — the pool's
  /// parallel_for supports such nesting).  Must outlive the algorithm.
  /// Scheduling only: results stay bit-identical for a fixed seed.
  ThreadPool* shared_pool = nullptr;
  /// Optional telemetry sink (must outlive the algorithm).  Counters and
  /// timers aggregate across every instance sharing the registry.
  MetricsRegistry* metrics = nullptr;
  std::uint64_t seed = 1;
};

struct Individual {
  Allocation genome;
  EUPoint objectives;
  std::size_t rank = 0;     ///< 0 == nondominated
  double crowding = 0.0;
  /// Per-machine simulation partials backing the incremental
  /// delta-evaluator; every evaluated individual carries one.  Offspring
  /// whose operators touched few genes re-simulate only the dirty machines
  /// of their parent's state, bit-identically to a full simulation.
  EvalState state;
};

/// Observer invoked after every generation with (generation number, the
/// freshly selected parent population).  Must not outlive its captures; the
/// population reference is only valid during the call.
using GenerationObserver =
    std::function<void(std::size_t, const std::vector<Individual>&)>;

/// Deb's crowded-comparison binary tournament between candidates `a` and
/// `b` (indices into `population`): lower rank wins; equal ranks prefer
/// the larger crowding distance; an *exact* crowding tie is broken by a
/// fair coin flip from `rng` (historically the first candidate always won,
/// deterministically biasing selection toward earlier draws).
[[nodiscard]] std::size_t crowded_tournament_winner(
    const std::vector<Individual>& population, std::size_t a, std::size_t b,
    Rng& rng);

class Nsga2 {
 public:
  /// The problem must outlive the algorithm.  Throws on invalid config.
  Nsga2(const BiObjectiveProblem& problem, Nsga2Config config);
  ~Nsga2();

  Nsga2(const Nsga2&) = delete;
  Nsga2& operator=(const Nsga2&) = delete;

  /// Builds the initial population: the given seed chromosomes first (must
  /// fit within N and match the genome size), the rest uniformly random.
  /// Must be called exactly once before iterate().
  void initialize(const std::vector<Allocation>& seeds);

  /// Warm-started initialization: `seeds` are first-class (same contract as
  /// initialize()), then as many `warm` genomes as still fit are injected
  /// — archived fronts from a previous converged run — and the remainder is
  /// filled uniformly at random exactly as a cold start would.  Overflowing
  /// warm genomes are dropped (lowest-index kept).  Once initialize()
  /// accepts the population, bumps the `nsga2.warm_seeds` counter by the
  /// number injected; a rejected warm start counts nothing.
  void initialize_warm(const std::vector<Allocation>& seeds,
                       const std::vector<Allocation>& warm);

  /// Runs `generations` generations (Algorithm 1 steps 3-11, repeated).
  void iterate(std::size_t generations);

  /// Installs (or clears, with nullptr) the per-generation observer —
  /// convergence trackers, archives, live plots.
  void set_observer(GenerationObserver observer) {
    observer_ = std::move(observer);
  }

  /// Current parent population, rank/crowding annotations up to date.
  [[nodiscard]] const std::vector<Individual>& population() const noexcept {
    return population_;
  }

  /// The current rank-0 individuals (the evolving Pareto set), ascending
  /// energy.
  [[nodiscard]] std::vector<Individual> front() const;

  /// Just the rank-0 objective points, ascending energy.
  [[nodiscard]] std::vector<EUPoint> front_points() const;

  [[nodiscard]] std::size_t generation() const noexcept { return generation_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] const Nsga2Config& config() const noexcept { return config_; }

 private:
  /// Delta-evaluation lineage of one offspring: the one parent it is
  /// diffed against and the genes where it differs from that parent
  /// (post-filtering — segment swaps between similar parents copy
  /// mostly-equal genes).
  /// `full` forces a from-scratch simulation (order repair rewrites every
  /// order gene, and zero-size populations have nothing to track).
  struct OffspringHint {
    std::uint32_t parent = 0;
    bool full = true;
    std::vector<std::uint32_t> touched;
  };

  /// Evaluates individuals[begin..] as one batch: on the pool when there
  /// is one, in a plain loop when there is not.
  void evaluate_all(std::vector<Individual>& individuals, std::size_t begin,
                    const std::vector<OffspringHint>* hints);
  /// Evaluates individuals[idx] in place (clone → delta → full, whichever
  /// applies; see the definition).  The unit evaluate_all() fans out.
  void evaluate_individual(std::vector<Individual>& individuals,
                           std::size_t idx, const OffspringHint* hint);
  void annotate_and_select(std::vector<Individual>& meta);

  const BiObjectiveProblem* problem_;
  Nsga2Config config_;
  Rng rng_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when shared or serial
  ThreadPool* eval_pool_ = nullptr;         ///< null when evaluating serially
  /// Metric handles, resolved once at construction (null when disabled).
  Counter* metric_evaluations_ = nullptr;
  Counter* metric_generations_ = nullptr;
  Gauge* metric_front_size_ = nullptr;
  TimerMetric* timer_variation_ = nullptr;
  TimerMetric* timer_evaluation_ = nullptr;
  TimerMetric* timer_selection_ = nullptr;
  std::vector<Individual> population_;
  /// Per-generation offspring lineage, reused to avoid reallocation.
  std::vector<OffspringHint> hints_;
  GenerationObserver observer_;
  std::size_t generation_ = 0;
  std::uint64_t evaluations_ = 0;
  bool initialized_ = false;
};

}  // namespace eus
