#pragma once

// The bi-objective resource-allocation problem consumed by the NSGA-II,
// annealing and local search.  Every problem owns the one Evaluator that
// scores its genomes; optimizers call it directly (full, trusted or delta
// path) and map the raw Evaluation through objectives_of.  Objectives are
// reported as an EUPoint: `energy` is minimized and `utility` maximized
// (Figure 2's axes).  Problems with different semantics map into that
// convention (see MakespanEnergyProblem).

#include <cstddef>
#include <utility>

#include "pareto/point.hpp"
#include "sched/evaluator.hpp"

namespace eus {

class BiObjectiveProblem {
 public:
  /// Both referents must outlive the problem.
  BiObjectiveProblem(const SystemModel& system, const Trace& trace,
                     EvaluatorOptions options = {})
      : evaluator_(system, trace, std::move(options)) {}
  virtual ~BiObjectiveProblem() = default;

  /// Maps a raw simulator Evaluation into this problem's (energy, utility)
  /// point convention — the one decision the problems differ on.
  [[nodiscard]] virtual EUPoint objectives_of(const Evaluation& e) const = 0;

  /// Objective values of a complete allocation (validated).  Thread-safe.
  [[nodiscard]] EUPoint evaluate(const Allocation& allocation) const {
    return objectives_of(evaluator_.evaluate(allocation));
  }

  /// The simulator behind evaluate(); optimizers reach its delta path here.
  [[nodiscard]] const Evaluator& evaluator() const noexcept {
    return evaluator_;
  }

  /// Number of genes (== trace size).
  [[nodiscard]] std::size_t genome_size() const {
    return evaluator_.trace().size();
  }

  /// Catalog access for genetic operators (eligibility, arrival times).
  [[nodiscard]] const SystemModel& system() const {
    return evaluator_.system();
  }
  [[nodiscard]] const Trace& trace() const { return evaluator_.trace(); }

  /// Number of DVFS P-states a pstate gene may take; 0 disables the gene.
  [[nodiscard]] std::size_t num_pstates() const {
    return evaluator_.options().dvfs ? evaluator_.options().dvfs->size() : 0;
  }

 private:
  Evaluator evaluator_;
};

/// The paper's primary problem: maximize total utility earned, minimize
/// total energy consumed (§IV-B).
class UtilityEnergyProblem final : public BiObjectiveProblem {
 public:
  using BiObjectiveProblem::BiObjectiveProblem;

  [[nodiscard]] EUPoint objectives_of(const Evaluation& e) const override {
    return {e.energy, e.utility};
  }
};

/// The predecessor baseline (Friese et al., INFOCOMP 2012, the paper's
/// ref [3]): minimize makespan and energy.  Makespan enters the EUPoint as
/// utility = -makespan so "maximize utility" == "minimize makespan".
class MakespanEnergyProblem final : public BiObjectiveProblem {
 public:
  using BiObjectiveProblem::BiObjectiveProblem;

  [[nodiscard]] EUPoint objectives_of(const Evaluation& e) const override {
    return {e.energy, -e.makespan};
  }
};

}  // namespace eus
