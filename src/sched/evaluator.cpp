#include "sched/evaluator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace eus {

Evaluator::Evaluator(const SystemModel& system, const Trace& trace,
                     EvaluatorOptions options)
    : system_(&system), trace_(&trace), options_(std::move(options)) {
  trace.validate_against(system);
  if (!options_.idle_watts.empty()) {
    if (options_.idle_watts.size() != system.num_machine_types()) {
      throw std::invalid_argument("idle_watts must cover every machine type");
    }
    for (const double w : options_.idle_watts) {
      if (!(w >= 0.0)) throw std::invalid_argument("negative idle wattage");
    }
  }

  // Structure-of-arrays resolution: one pass at construction so the
  // simulation loop reads only flat arrays (docs/evaluator.md).
  num_machines_ = system.num_machines();
  num_tasks_ = trace.size();
  const std::size_t types = system.num_task_types();

  task_rec_.resize(num_tasks_);
  // Tasks routinely share TUF objects (one per utility class), so the span
  // table is deduplicated by object identity — shared runs keep the table
  // small and hot in cache.
  std::unordered_map<const TimeUtilityFunction*, std::uint32_t> span_runs;
  for (std::size_t i = 0; i < num_tasks_; ++i) {
    const TaskInstance& task = trace.tasks()[i];
    TaskRec& rec = task_rec_[i];
    rec.type = static_cast<std::uint32_t>(task.type);
    rec.arrival = task.arrival;

    const TimeUtilityFunction& f = trace.tuf_of(i);
    rec.tuf_priority = f.priority();
    rec.tuf_residual = f.residual();
    const auto [it, fresh] = span_runs.try_emplace(
        &f, static_cast<std::uint32_t>(tuf_spans_.size()));
    // 24/8 packing limits: the deduplicated span table stays far below
    // 2^24 entries and per-TUF interval counts far below 2^8 for any real
    // workload; refuse construction rather than silently truncate.
    if (it->second > 0xFFFFFFU || f.intervals().size() > 0xFFU) {
      throw std::invalid_argument("TUF span table too large to pack");
    }
    rec.tuf_run = (it->second << 8U) |
                  static_cast<std::uint32_t>(f.intervals().size());
    if (!fresh) continue;
    // Effective boundaries recomputed with the constructor's exact
    // expression, so tuf_value() sees bit-identical span edges.
    double t = 0.0;
    for (const TufInterval& iv : f.intervals()) {
      TufSpan span;
      span.start = t;
      t += iv.duration / (f.urgency() * iv.urgency_modifier);
      span.end = t;
      span.begin_fraction = iv.begin_fraction;
      span.end_fraction = iv.end_fraction;
      span.shape = iv.shape;
      if (iv.shape == TufInterval::Shape::kExponential) {
        // The exact operand TimeUtilityFunction::value feeds std::log.
        span.log_ratio = std::log(iv.end_fraction / iv.begin_fraction);
      }
      tuf_spans_.push_back(span);
    }
  }

  cost_tm_.resize(2 * types * num_machines_);
  eligible_bits_.assign((types * num_machines_ + 63U) / 64U, 0U);
  for (std::size_t t = 0; t < types; ++t) {
    for (std::size_t m = 0; m < num_machines_; ++m) {
      cost_tm_[2 * (t * num_machines_ + m)] = system.etc_on(t, m);
      cost_tm_[2 * (t * num_machines_ + m) + 1] = system.epc_on(t, m);
      if (system.eligible(t, m)) {
        const std::size_t bit = t * num_machines_ + m;
        eligible_bits_[bit >> 6U] |= std::uint64_t{1} << (bit & 63U);
      }
    }
  }

  if (!options_.idle_watts.empty()) {
    idle_watts_m_.resize(num_machines_);
    for (std::size_t m = 0; m < num_machines_; ++m) {
      idle_watts_m_[m] = options_.idle_watts[static_cast<std::size_t>(
          system.machines()[m].type)];
    }
  }

  if (options_.dvfs) {
    const std::size_t pstates = options_.dvfs->size();
    dvfs_time_.resize(pstates);
    dvfs_power_.resize(pstates);
    for (std::size_t p = 0; p < pstates; ++p) {
      dvfs_time_[p] = options_.dvfs->time_multiplier(p);
      dvfs_power_[p] = options_.dvfs->power_multiplier(p);
    }
  }

  if (options_.metrics != nullptr) {
    metric_evaluations_ = &options_.metrics->counter("evaluator.evaluations");
    metric_dropped_ = &options_.metrics->counter("evaluator.tasks_dropped");
    metric_inc_hits_ =
        &options_.metrics->counter("evaluator.incremental.hits");
    metric_inc_fallbacks_ =
        &options_.metrics->counter("evaluator.incremental.fallbacks");
    metric_inc_machines_ = &options_.metrics->counter(
        "evaluator.incremental.machines_resimulated");
  }
}

void Evaluator::validate_gene(const Allocation& allocation,
                              std::size_t gene) const {
  const int m = allocation.machine[gene];
  if (m < 0 || static_cast<std::size_t>(m) >= num_machines_) {
    throw std::invalid_argument("machine index out of range");
  }
  if (!eligible_fast(task_rec_[gene].type, static_cast<std::uint32_t>(m))) {
    throw std::invalid_argument("task mapped to ineligible machine");
  }
  if (!allocation.pstate.empty()) {
    const int p = allocation.pstate[gene];
    if (p < 0 || static_cast<std::size_t>(p) >= dvfs_time_.size()) {
      throw std::invalid_argument("pstate index out of range");
    }
  }
}

void Evaluator::validate(const Allocation& allocation) const {
  const std::size_t tasks = num_tasks_;
  if (allocation.machine.size() != tasks ||
      allocation.order.size() != tasks) {
    throw std::invalid_argument("allocation size mismatch");
  }
  if (!allocation.pstate.empty() && allocation.pstate.size() != tasks) {
    throw std::invalid_argument("pstate size mismatch");
  }
  if (!allocation.pstate.empty() && !options_.dvfs) {
    throw std::invalid_argument("pstates present but no DVFS model");
  }
  for (std::size_t i = 0; i < tasks; ++i) {
    validate_gene(allocation, i);
  }
}

double Evaluator::tuf_value(const TaskRec& rec, double elapsed) const
    noexcept {
  // Bit-identical replay of TimeUtilityFunction::value over the flattened
  // span table (same expressions, same order — see docs/evaluator.md).
  if (elapsed < 0.0) elapsed = 0.0;
  const std::uint32_t first = rec.tuf_run >> 8U;
  const std::uint32_t last = first + (rec.tuf_run & 0xFFU);
  for (std::uint32_t k = first; k < last; ++k) {
    const TufSpan& span = tuf_spans_[k];
    if (elapsed < span.end) {
      const double width = span.end - span.start;
      const double f = width > 0.0 ? (elapsed - span.start) / width : 1.0;
      switch (span.shape) {
        case TufInterval::Shape::kConstant:
          return rec.tuf_priority * span.begin_fraction;
        case TufInterval::Shape::kLinear:
          return rec.tuf_priority *
                 (span.begin_fraction +
                  (span.end_fraction - span.begin_fraction) * f);
        case TufInterval::Shape::kExponential:
          // b * (e/b)^f via exp(f * log(e/b)) with the log precomputed at
          // construction — bit-identical to TimeUtilityFunction::value,
          // which evaluates the same expression on the same operands.
          return rec.tuf_priority * span.begin_fraction *
                 std::exp(f * span.log_ratio);
      }
    }
  }
  return rec.tuf_residual;
}

template <typename PerTask>
void Evaluator::step_task(std::uint32_t i, MachinePartial& mp,
                          const Allocation& allocation, bool use_dvfs,
                          PerTask&& per_task) const {
  const TaskRec& rec = task_rec_[i];
  const std::size_t row =
      2 * (static_cast<std::size_t>(rec.type) * num_machines_ +
           static_cast<std::size_t>(allocation.machine[i]));
  double exec = cost_tm_[row];
  double power = cost_tm_[row + 1];
  if (use_dvfs) {
    const auto p = static_cast<std::size_t>(allocation.pstate[i]);
    exec *= dvfs_time_[p];
    power *= dvfs_power_[p];
  }

  ++mp.count;
  const double arrival = rec.arrival;
  const double start = std::max(mp.tail, arrival);
  const double finish = start + exec;
  const double utility = tuf_value(rec, finish - arrival);

  if (options_.drop_worthless_tasks && utility <= options_.drop_threshold) {
    ++mp.dropped;
    per_task(i, TaskOutcome{allocation.machine[i], 0.0, 0.0, 0.0, 0.0,
                            true});
    return;
  }

  mp.tail = finish;
  mp.busy += exec;
  const double energy = exec * power;  // EEC, Eq. (2)
  mp.utility += utility;
  mp.energy += energy;
  per_task(i, TaskOutcome{allocation.machine[i], start, finish, utility,
                          energy, false});
}

Evaluation Evaluator::reduce(const EvalState& state) const {
  Evaluation total;
  for (std::size_t m = 0; m < state.machines.size(); ++m) {
    const MachinePartial& mp = state.machines[m];
    total.utility += mp.utility;
    total.energy += mp.energy;
    total.makespan = std::max(total.makespan, mp.tail);
    total.dropped += mp.dropped;
  }
  if (!idle_watts_m_.empty()) {
    // A used machine is powered from t = 0 until its queue drains; gaps
    // (waiting for arrivals) bill at the machine type's idle wattage.
    for (std::size_t m = 0; m < state.machines.size(); ++m) {
      const MachinePartial& mp = state.machines[m];
      if (mp.tail <= 0.0) continue;  // never used
      total.idle_energy += idle_watts_m_[m] * (mp.tail - mp.busy);
    }
    total.energy += total.idle_energy;
  }
  return total;
}

template <typename PerTask>
Evaluation Evaluator::run(const Allocation& allocation, EvalState& state,
                          PerTask&& per_task) const {
  const std::size_t tasks = num_tasks_;

  // Execution sequence: global scheduling order, ties broken by index
  // (stable), independent of arrival times (§IV-D).  Orders produced by the
  // genetic operators always stay within [0, T), so a stable counting sort
  // covers the hot path; arbitrary user-supplied orders fall back to a
  // comparison sort.  Scratch is thread_local: evaluate() runs concurrently
  // on the population-evaluation pool.
  thread_local std::vector<std::uint32_t> sequence;
  sequence.resize(tasks);
  // Range check fused into the counting pass: a negative order wraps to a
  // huge unsigned value, so one unsigned compare covers both ends.
  thread_local std::vector<std::uint32_t> offsets;
  offsets.assign(tasks + 1, 0);
  bool orders_in_range = true;
  for (std::size_t i = 0; i < tasks; ++i) {
    const auto o = static_cast<std::uint32_t>(allocation.order[i]);
    if (o >= tasks) {
      orders_in_range = false;
      break;
    }
    ++offsets[o + 1];
  }
  if (orders_in_range) {
    for (std::size_t k = 1; k <= tasks; ++k) offsets[k] += offsets[k - 1];
    // Visiting tasks in index order keeps equal-order ties index-stable.
    for (std::size_t i = 0; i < tasks; ++i) {
      sequence[offsets[static_cast<std::size_t>(allocation.order[i])]++] =
          static_cast<std::uint32_t>(i);
    }
  } else {
    std::iota(sequence.begin(), sequence.end(), 0U);
    std::sort(sequence.begin(), sequence.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const int oa = allocation.order[a];
                const int ob = allocation.order[b];
                return oa != ob ? oa < ob : a < b;
              });
  }

  const bool use_dvfs =
      options_.dvfs.has_value() && !allocation.pstate.empty();

  state.machines.assign(num_machines_, MachinePartial{});
  for (const std::uint32_t i : sequence) {
    step_task(i, state.machines[static_cast<std::size_t>(
                     allocation.machine[i])],
              allocation, use_dvfs, per_task);
  }

  const Evaluation total = reduce(state);
  if (metric_evaluations_ != nullptr) {
    metric_evaluations_->add(1);
    if (total.dropped != 0) metric_dropped_->add(total.dropped);
  }
  return total;
}

Evaluation Evaluator::evaluate(const Allocation& allocation) const {
  validate(allocation);
  thread_local EvalState scratch;
  return run(allocation, scratch, [](std::uint32_t, const TaskOutcome&) {});
}

Evaluation Evaluator::evaluate(const Allocation& allocation,
                               EvalState& state) const {
  validate(allocation);
  return run(allocation, state, [](std::uint32_t, const TaskOutcome&) {});
}

Evaluation Evaluator::evaluate_trusted(const Allocation& allocation,
                                       EvalState& state) const {
  return run(allocation, state, [](std::uint32_t, const TaskOutcome&) {});
}

Evaluation Evaluator::evaluate_incremental(
    const Allocation& child, const Allocation& parent,
    const EvalState& parent_state, std::span<const std::uint32_t> touched,
    EvalState& out_state, bool trusted_child) const {
  const auto noop = [](std::uint32_t, const TaskOutcome&) {};
  // Every fallback counts itself and simulates the child in full.  Only a
  // shape mismatch or a parent breaking its own contract re-validates the
  // whole child; otherwise the touched genes were validated while marking
  // and the untouched remainder is byte-identical to the validated parent.
  const auto full_fallback = [&](bool validate_child) {
    if (metric_inc_fallbacks_ != nullptr) metric_inc_fallbacks_->add(1);
    if (validate_child) validate(child);
    return run(child, out_state, noop);
  };

  if (parent_state.machines.size() != num_machines_ ||
      child.machine.size() != num_tasks_ ||
      child.order.size() != num_tasks_ ||
      child.machine.size() != parent.machine.size() ||
      child.order.size() != parent.order.size() ||
      child.pstate.size() != parent.pstate.size() ||
      (!child.pstate.empty() &&
       (child.pstate.size() != num_tasks_ || !options_.dvfs))) {
    return full_fallback(/*validate_child=*/true);
  }

  // Dirty machines: every machine that gained, lost, re-ordered, or
  // re-clocked a task.  Touched genes are validated here (the untouched
  // remainder is byte-identical to the validated parent).
  thread_local std::vector<std::uint8_t> dirty_flag;
  thread_local std::vector<std::uint32_t> dirty_list;
  dirty_flag.assign(num_machines_, 0);
  dirty_list.clear();
  const auto mark = [&](std::uint32_t m) {
    if (dirty_flag[m] == 0) {
      dirty_flag[m] = 1;
      dirty_list.push_back(m);
    }
  };
  for (const std::uint32_t g : touched) {
    if (g >= num_tasks_) {
      throw std::invalid_argument("touched gene index out of range");
    }
    if (!trusted_child) validate_gene(child, g);
    const int pm = parent.machine[g];
    if (pm < 0 || static_cast<std::size_t>(pm) >= num_machines_) {
      return full_fallback(/*validate_child=*/true);  // parent breaks contract
    }
    mark(static_cast<std::uint32_t>(child.machine[g]));
    mark(static_cast<std::uint32_t>(pm));
  }

  // Resimulation cost estimate (parent's per-machine populations are off
  // by at most |touched|): past half the trace a full pass is cheaper.  It
  // is at least |touched|, so a delta touching over half the trace always
  // lands here.
  std::size_t estimated = touched.size();
  for (const std::uint32_t m : dirty_list) {
    estimated += parent_state.machines[m].count;
  }
  if (estimated * 2 > num_tasks_) {
    return full_fallback(/*validate_child=*/false);
  }

  // Gather the dirty machines' tasks (child mapping) in index order without
  // a data-dependent branch: every index is written, and the output only
  // advances past it when its machine is dirty.
  thread_local std::vector<std::uint32_t> gathered;
  thread_local std::vector<std::uint32_t> sorted;
  gathered.resize(num_tasks_);
  sorted.resize(num_tasks_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < num_tasks_; ++i) {
    gathered[n] = static_cast<std::uint32_t>(i);
    n += dirty_flag[static_cast<std::size_t>(child.machine[i])];
  }

  // Stable LSD radix sort by order on 8-bit digits, one histogram pass for
  // all digits with the [0, T) range check fused in.  Stability over the
  // index-ordered input breaks equal-order ties by index, exactly as the
  // full path's counting sort does; out-of-range orders take a stable
  // comparison sort, as the full path leaves its counting sort for them.
  const auto passes = static_cast<std::size_t>(
      (std::bit_width(static_cast<std::uint32_t>(num_tasks_ - 1)) + 7) / 8);
  std::array<std::array<std::uint32_t, 256>, 4> offsets{};
  bool orders_in_range = true;
  for (std::size_t k = 0; k < n; ++k) {
    const auto o = static_cast<std::uint32_t>(child.order[gathered[k]]);
    orders_in_range &= o < num_tasks_;
    for (std::size_t p = 0; p < passes; ++p) {
      ++offsets[p][(o >> (8 * p)) & 0xFFU];
    }
  }
  std::uint32_t* seq = gathered.data();
  std::uint32_t* dst = sorted.data();
  for (std::size_t p = 0; orders_in_range && p < passes; ++p) {
    std::exclusive_scan(offsets[p].begin(), offsets[p].end(),
                        offsets[p].begin(), std::uint32_t{0});
    for (std::size_t k = 0; k < n; ++k) {
      const auto o = static_cast<std::uint32_t>(child.order[seq[k]]);
      dst[offsets[p][(o >> (8 * p)) & 0xFFU]++] = seq[k];
    }
    std::swap(seq, dst);
  }
  if (!orders_in_range) {
    std::stable_sort(seq, seq + n, [&](std::uint32_t a, std::uint32_t b) {
      return child.order[a] < child.order[b];
    });
  }

  // One replay: machines interleave, but each dirty partial still
  // accumulates its own tasks in execution order.
  out_state = parent_state;
  for (const std::uint32_t m : dirty_list) out_state.machines[m] = {};
  const bool use_dvfs = options_.dvfs.has_value() && !child.pstate.empty();
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t i = seq[k];
    step_task(i, out_state.machines[static_cast<std::size_t>(child.machine[i])],
              child, use_dvfs, noop);
  }

  const Evaluation total = reduce(out_state);
  if (metric_evaluations_ != nullptr) {
    metric_evaluations_->add(1);
    if (total.dropped != 0) metric_dropped_->add(total.dropped);
  }
  if (metric_inc_hits_ != nullptr) {
    metric_inc_hits_->add(1);
    metric_inc_machines_->add(dirty_list.size());
  }
  return total;
}

std::pair<Evaluation, std::vector<TaskOutcome>> Evaluator::detail(
    const Allocation& allocation) const {
  validate(allocation);
  std::vector<TaskOutcome> outcomes(trace_->size());
  thread_local EvalState scratch;
  Evaluation total = run(allocation, scratch, [&](std::uint32_t i,
                                                  const TaskOutcome& o) {
    outcomes[i] = o;
  });
  return {total, std::move(outcomes)};
}

}  // namespace eus
