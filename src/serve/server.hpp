#pragma once

// eus_served's engine, decomposed into the components the runtime halts in
// order (docs/runtime.md): a FrameListener (listen socket, accept thread
// and per-connection reader threads; net.hpp) and a WorkerCrew (a bounded
// request queue with explicit backpressure plus the elastic worker pool
// that drains it, executing allocate requests through handlers.cpp —
// NSGA-II evaluation batches fan out onto one shared ThreadPool, so
// concurrent requests share the machine instead of oversubscribing it).
// The Server class is the facade wiring them together; ServeRuntime
// (runtime.hpp) owns the process-level lifecycle around it.
//
// Flow control: the listener hands each request frame to process_payload(),
// which parses it and enqueues the request; if the queue is full (or the
// server is draining) the client gets an immediate 503-style JSON error —
// the queue never grows beyond its configured depth.  healthz/metricsz/
// adminz requests bypass the queue and answer inline from the connection
// thread, so health and the admin plane stay responsive under full load.
//
// Live administration: set_queue_capacity / set_cache_capacity /
// set_workers retune the running server without a restart (the adminz
// verbs land here), and a SharedCatalog pointer lets catalog-reload swap
// the alias catalog atomically — aliases resolve to concrete specs at
// accept time, so in-flight requests finish against the catalog they
// arrived under.
//
// Shutdown: stop() runs the ordered teardown halt_acceptor() →
// halt_queue() → halt_workers(); each step is individually callable (the
// runtime drives them one by one), idempotent, and counted under
// serve.lifecycle.*.  Workers drain every queued request before exiting,
// so no request that was accepted into the queue is ever dropped by
// shutdown.
//
// The listener writes exactly one response frame per request frame, in
// request order; clients wanting concurrency open several connections
// (eus_client --concurrency does exactly that).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_catalog.hpp"
#include "serve/front_cache.hpp"
#include "serve/handlers.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "telemetry/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace eus::serve {

class RuntimeState;  // runtime.hpp — healthz/adminz report its phase

/// One queued allocate or delta request.
struct RequestJob {
  ServeRequest request;
  Stopwatch waited;  ///< starts at enqueue: measures queue time
  std::promise<HandleResult> promise;
};

/// The bounded request queue and the elastic pool of workers that drain
/// it, under one mutex and one condition variable.  try_push never blocks
/// and never grows the queue past its capacity: a full queue is the
/// caller's signal to shed load.  Workers are numbered by slot and slot i
/// runs while i < target, so a shrink retires the idle workers at or above
/// the new target and a busy one once its job is done; queued work is
/// never dropped by a resize.  Slot 0 never retires, so halt() always
/// drains the queue.
class WorkerCrew {
 public:
  WorkerCrew(std::size_t capacity, std::function<void(RequestJob&)> execute);
  ~WorkerCrew() { halt(); }

  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  /// Enqueues unless the queue is full or closed; returns whether the job
  /// was taken (on false the caller still owns `job`).
  [[nodiscard]] bool try_push(RequestJob&& job);

  /// Live resize (clamped >= 1): starts the missing slots below the new
  /// target and wakes the workers at or above it so they retire.  A no-op
  /// once the queue is closed.
  void resize(std::size_t target);

  /// Live capacity change (clamped >= 1).  Jobs already queued beyond a
  /// smaller capacity stay queued; only future try_push calls see it.
  void set_capacity(std::size_t capacity);

  /// Refuses new jobs; queued ones still run.  Idempotent.
  void close();

  /// Closes the queue, lets the workers drain every queued job and joins
  /// every thread.  Idempotent.
  void halt();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::size_t target() const;
  [[nodiscard]] std::size_t active() const;

 private:
  void worker_loop(std::size_t slot);

  std::function<void(RequestJob&)> execute_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<RequestJob> jobs_;
  std::vector<std::thread> threads_;  ///< indexed by slot
  std::vector<bool> running_;         ///< per slot: its worker has not exited
  std::size_t capacity_;
  std::size_t target_ = 0;
  bool closed_ = false;
};

struct ServerConfig {
  /// TCP port; 0 binds an ephemeral port (query it via port()).  The
  /// listener binds the loopback interface only.
  std::uint16_t port = 0;
  /// Bounded request-queue depth; overflow is answered with a 503-style
  /// error (EUS_SERVE_QUEUE_DEPTH for the daemon).  Live-tunable via the
  /// set-queue-depth admin verb.
  std::size_t queue_depth = 64;
  /// Request-executing worker threads (each runs one allocate at a time).
  /// Live-tunable via the set-workers admin verb.
  std::size_t workers = 2;
  /// Shared NSGA-II evaluation pool: 0 = hardware concurrency, 1 = inline
  /// evaluation (no pool).  All concurrent requests share this pool.
  std::size_t eval_threads = 1;
  /// LRU front-cache capacity in results; 0 disables caching.
  /// Live-tunable via the set-cache-entries admin verb (unless disabled).
  std::size_t cache_entries = 64;
  /// Reject request frames larger than this many payload bytes.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Optional external metrics sink (must outlive the server); the server
  /// owns a private registry when null.
  MetricsRegistry* metrics = nullptr;
  /// Optional JSONL request log (must outlive the server).
  RequestLog* log = nullptr;
  /// Optional alias catalog (must outlive the server): allocate requests
  /// naming a non-built-in scenario resolve against its current snapshot
  /// at accept time, and the catalog-reload admin verb swaps it.
  SharedCatalog* catalog = nullptr;
  /// Optional runtime phase source (must outlive the server): healthz and
  /// adminz get-config report its phase when set.
  const RuntimeState* state = nullptr;
  /// Optional per-tenant warm-start archive (must outlive the server):
  /// tenant-scoped allocate and delta requests read and feed it, and the
  /// archive-* admin verbs administer it (docs/tenant.md).
  tenant::ArchiveStore* archive = nullptr;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();  ///< stops and drains if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the acceptor + workers.  Throws
  /// std::runtime_error when the port cannot be bound.
  void start();

  /// The bound port (valid after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

  /// Async-signal-friendly shutdown request: flips the drain flag and
  /// unblocks the acceptor.  The daemon's lifecycle thread then runs the
  /// ordered halt steps (or stop(), which runs all of them).
  void request_stop() noexcept;

  /// Graceful drain: halt_acceptor() → halt_queue() → halt_workers().
  /// Answers every queued and in-flight request, then closes connections
  /// and joins every thread.  Idempotent.
  void stop();

  // Ordered teardown steps.  Each is idempotent, must be called in the
  // order below (stop() and ServeRuntime::halt() do), and bumps its
  // serve.lifecycle.* counter on the first call.
  void halt_acceptor();  ///< stop accepting; join the accept thread
  void halt_queue();     ///< refuse new work; queued jobs still run
  void halt_workers();   ///< drain + join workers, then close connections

  /// True once request_stop()/stop()/halt_acceptor() has begun.
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  // Live admin knobs (the adminz verbs land here; also callable directly,
  // e.g. from tests).  Values are clamped >= 1.
  void set_queue_capacity(std::size_t depth);
  void set_cache_capacity(std::size_t entries);  ///< no-op when disabled
  void set_workers(std::size_t count);

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] std::size_t queue_size() const;
  [[nodiscard]] std::size_t queue_capacity() const;
  [[nodiscard]] std::size_t worker_target() const;
  [[nodiscard]] std::size_t worker_active() const;
  [[nodiscard]] std::size_t eval_threads() const;  ///< resolved pool size
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }

 private:
  void execute_job(RequestJob& job);
  /// Parses and dispatches one request frame and returns the response
  /// payload (the listener's respond callback).  Allocate and delta
  /// requests block here until a worker has answered them.
  [[nodiscard]] std::string process_payload(const std::string& payload);
  [[nodiscard]] std::string healthz_payload(const std::string& id) const;
  [[nodiscard]] std::string metricsz_payload(const std::string& id) const;
  [[nodiscard]] std::string adminz_payload(const ServeRequest& request);
  [[nodiscard]] std::string admin_config_payload(const std::string& id) const;
  void log_request(const ServeRequest& request, int code, double total_ms,
                   bool dropped);

  ServerConfig config_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<FrontCache> cache_;
  std::unique_ptr<ThreadPool> eval_pool_;  ///< null when eval_threads == 1
  HandlerContext handler_context_;

  WorkerCrew crew_;
  FrameListener listener_;

  Stopwatch uptime_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> acceptor_halted_{false};
  std::atomic<bool> queue_halted_{false};
  std::atomic<bool> workers_halted_{false};
  std::atomic<std::size_t> in_flight_{0};

  // Metric handles, resolved once at start().
  Counter* metric_connections_ = nullptr;
  Counter* metric_requests_ = nullptr;
  Counter* metric_responses_ok_ = nullptr;
  Counter* metric_errors_ = nullptr;
  Counter* metric_dropped_ = nullptr;
  Counter* metric_deadline_expired_ = nullptr;
  Counter* metric_admin_actions_ = nullptr;
  Counter* metric_halt_acceptor_ = nullptr;
  Counter* metric_halt_queue_ = nullptr;
  Counter* metric_halt_workers_ = nullptr;
  Gauge* metric_queue_depth_ = nullptr;
  Gauge* metric_in_flight_ = nullptr;
  Gauge* metric_workers_ = nullptr;
  TimerMetric* metric_service_ = nullptr;
  TimerMetric* metric_queue_wait_ = nullptr;
  Histogram* metric_latency_ = nullptr;
};

}  // namespace eus::serve
