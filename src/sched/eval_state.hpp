#pragma once

// Per-allocation simulation state for the incremental delta-evaluator.
//
// The offline simulator (§IV-B) decomposes exactly per machine: a task's
// start time depends only on its own machine's queue tail and its arrival,
// so each machine's (utility, energy, busy-time, tail) partials are a pure
// function of the tasks mapped to it and their relative scheduling order.
// An EvalState captures those partials for every machine after one full
// simulation; when a genetic operator touches only a few genes, re-running
// just the *dirty* machines and re-reducing all partials in machine order
// reproduces the full simulation bit for bit (see docs/evaluator.md for
// the oracle contract).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace eus {

/// One machine's accumulated simulation partials.  All floating-point
/// fields are accumulated in within-machine execution order, so a partial
/// recomputed in isolation is bit-identical to the one the full simulator
/// produced while interleaving machines.
struct MachinePartial {
  double tail = 0.0;     ///< finish time of the last executed task (0 = unused)
  double busy = 0.0;     ///< seconds spent executing (excludes queue gaps)
  double utility = 0.0;  ///< Eq. (1) partial over this machine's tasks
  double energy = 0.0;   ///< busy-energy partial, Eq. (2) (no idle share)
  std::uint32_t dropped = 0;  ///< tasks mapped here but dropped
  std::uint32_t count = 0;    ///< tasks mapped here (including dropped)

  friend bool operator==(const MachinePartial&,
                         const MachinePartial&) = default;
};

/// Simulation partials of one allocation, indexed by machine instance.
/// Produced by Evaluator::evaluate(allocation, state) and consumed (plus
/// re-produced) by Evaluator::evaluate_incremental.  A default-constructed
/// state is invalid; states only pair with the genome they were computed
/// from, on the evaluator that computed them.
struct EvalState {
  std::vector<MachinePartial> machines;

  [[nodiscard]] bool valid() const noexcept { return !machines.empty(); }
};

}  // namespace eus
