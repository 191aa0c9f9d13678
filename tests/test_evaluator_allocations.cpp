// Heap-allocation count of the delta evaluator's steady state.  The binary
// replaces the global operator new with a counting one, so it lives apart
// from the other suites: once the thread_local scratch and the caller's
// out_state are sized, a delta hit must not touch the heap.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "sched/evaluator.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "workload/scenarios.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Out of line, so gcc cannot pair an inlined malloc() or free() with a
// new- or delete-expression and report a mismatch the replacement makes
// legitimate.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace eus {
namespace {

TEST(EvaluatorAllocations, WarmDeltaHitMakesNoHeapAllocations) {
  const Scenario scenario = make_dataset3(31);
  MetricsRegistry metrics;
  EvaluatorOptions options;
  options.metrics = &metrics;
  const Evaluator ev(scenario.system, scenario.trace, options);
  const Counter& hits = metrics.counter("evaluator.incremental.hits");

  Rng rng(5);
  const std::size_t n = scenario.trace.size();
  Allocation parent;
  parent.machine.resize(n);
  parent.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& eligible =
        scenario.system.eligible_machines(scenario.trace.tasks()[i].type);
    parent.machine[i] = eligible[rng.below(eligible.size())];
    parent.order[i] = static_cast<int>(rng.below(n));
  }
  EvalState parent_state;
  ev.evaluate(parent, parent_state);

  // A two-gene delta: one migration, one reorder.
  Allocation child = parent;
  const std::vector<std::uint32_t> touched = {17, 2024};
  for (const int m :
       scenario.system.eligible_machines(scenario.trace.tasks()[17].type)) {
    if (m != parent.machine[17]) child.machine[17] = m;
  }
  child.order[2024] = static_cast<int>(n / 2);

  // The cold call sizes out_state, which shows the counter is live.
  EvalState out;
  std::size_t before = g_allocations.load();
  const Evaluation cold =
      ev.evaluate_incremental(child, parent, parent_state, touched, out);
  EXPECT_GT(g_allocations.load() - before, 0U);

  before = g_allocations.load();
  const Evaluation warm =
      ev.evaluate_incremental(child, parent, parent_state, touched, out);
  EXPECT_EQ(g_allocations.load() - before, 0U);

  EXPECT_EQ(hits.value(), 2U);
  EXPECT_EQ(warm.energy, cold.energy);
  EXPECT_EQ(warm.utility, cold.utility);
}

}  // namespace
}  // namespace eus
