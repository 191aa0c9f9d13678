// WorkerCrew semantics: capacity backpressure, FIFO order, clamping,
// close-then-drain, concurrent producers, and live shrink/regrow that
// neither loses nor repeats a queued job.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace eus::serve {
namespace {

RequestJob job(int tag) {
  RequestJob j;
  j.request.id = std::to_string(tag);
  return j;
}

/// Records the tag of every job a crew runs, in run order.  Declare it
/// before the crew so it outlives the workers.
struct Recorder {
  std::mutex mutex;
  std::vector<int> ran;

  std::function<void(RequestJob&)> execute() {
    return [this](RequestJob& j) {
      const std::lock_guard lock(mutex);
      ran.push_back(std::stoi(j.request.id));
    };
  }
};

void push_until_taken(WorkerCrew& crew, int tag) {
  // Spin on backpressure: these tests want every job delivered.
  while (!crew.try_push(job(tag))) std::this_thread::yield();
}

TEST(WorkerCrew, RefusesPushWhenFull) {
  Recorder recorder;
  WorkerCrew crew(2, recorder.execute());
  EXPECT_TRUE(crew.try_push(job(1)));
  EXPECT_TRUE(crew.try_push(job(2)));
  // No worker runs yet, so the queue is full; a refused job stays with the
  // caller.
  RequestJob third = job(3);
  EXPECT_FALSE(crew.try_push(std::move(third)));
  EXPECT_EQ(third.request.id, "3");
  EXPECT_EQ(crew.size(), 2U);

  crew.resize(1);
  crew.halt();
  EXPECT_EQ(recorder.ran, (std::vector<int>{1, 2}));
}

TEST(WorkerCrew, RunsJobsInFifoOrder) {
  Recorder recorder;
  WorkerCrew crew(4, recorder.execute());
  crew.resize(1);
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    push_until_taken(crew, i);
    expected.push_back(i);
  }
  crew.halt();
  EXPECT_EQ(recorder.ran, expected);
}

TEST(WorkerCrew, CapacityAndTargetClampToOne) {
  Recorder recorder;
  WorkerCrew crew(0, recorder.execute());
  EXPECT_EQ(crew.capacity(), 1U);
  EXPECT_TRUE(crew.try_push(job(1)));
  EXPECT_FALSE(crew.try_push(job(2)));
  crew.set_capacity(0);
  EXPECT_EQ(crew.capacity(), 1U);

  crew.resize(0);
  EXPECT_EQ(crew.target(), 1U);
  EXPECT_EQ(crew.active(), 1U);
  crew.halt();
  EXPECT_EQ(recorder.ran, (std::vector<int>{1}));
}

TEST(WorkerCrew, CloseRefusesNewJobsButDrainsQueued) {
  std::promise<void> started;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<int> ran;  // only the single worker touches it before halt
  WorkerCrew crew(4, [&](RequestJob& j) {
    const int tag = std::stoi(j.request.id);
    if (tag == 0) {
      started.set_value();
      released.wait();
    }
    ran.push_back(tag);
  });
  crew.resize(1);
  ASSERT_TRUE(crew.try_push(job(0)));
  started.get_future().wait();  // the worker is busy; the rest queue up
  ASSERT_TRUE(crew.try_push(job(1)));
  ASSERT_TRUE(crew.try_push(job(2)));

  crew.close();
  EXPECT_FALSE(crew.try_push(job(3)));  // refused after close
  EXPECT_EQ(crew.size(), 2U);
  crew.resize(4);  // no-op once closed
  EXPECT_EQ(crew.target(), 1U);

  release.set_value();
  crew.halt();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(crew.size(), 0U);
}

TEST(WorkerCrew, HaltWakesIdleWorkers) {
  Recorder recorder;
  WorkerCrew crew(4, recorder.execute());
  crew.resize(3);
  EXPECT_EQ(crew.active(), 3U);
  crew.halt();
  EXPECT_EQ(crew.active(), 0U);
  // halt() is idempotent, and a resize after it starts nothing.
  crew.halt();
  crew.resize(2);
  EXPECT_EQ(crew.active(), 0U);
}

TEST(WorkerCrew, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  Recorder recorder;
  WorkerCrew crew(8, recorder.execute());
  crew.resize(2);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&crew, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        push_until_taken(crew, p * kPerProducer + i);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  crew.halt();

  EXPECT_EQ(recorder.ran.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(std::set<int>(recorder.ran.begin(), recorder.ran.end()).size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
}

// Shrinks and regrows race retiring workers against queued jobs and
// restarted slots: every accepted job must still run exactly once.
TEST(WorkerCrew, ShrinkAndRegrowRunEveryJobOnce) {
  constexpr int kRounds = 50;
  constexpr int kPerRound = 20;
  std::vector<std::atomic<int>> runs(kRounds * kPerRound);
  WorkerCrew crew(4, [&runs](RequestJob& j) {
    runs[static_cast<std::size_t>(std::stoi(j.request.id))].fetch_add(1);
    std::this_thread::yield();  // widen the busy window a shrink can hit
  });
  const std::size_t targets[] = {4, 1, 3, 1, 2};
  for (int round = 0; round < kRounds; ++round) {
    crew.resize(targets[round % 5]);
    for (int i = 0; i < kPerRound; ++i) {
      push_until_taken(crew, round * kPerRound + i);
    }
  }
  crew.halt();

  EXPECT_EQ(crew.active(), 0U);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "job " << i;
  }
}

}  // namespace
}  // namespace eus::serve
