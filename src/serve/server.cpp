#include "serve/server.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "serve/runtime.hpp"
#include "telemetry/json.hpp"

namespace eus::serve {

// ---------------------------------------------------------------- WorkerCrew

WorkerCrew::WorkerCrew(BoundedQueue<RequestJob>& queue,
                       std::function<void(RequestJob&)> execute)
    : queue_(queue), execute_(std::move(execute)) {}

void WorkerCrew::spawn_locked() {
  members_.emplace_back();
  Member* member = &members_.back();
  ++active_;
  member->thread = std::thread([this, member] { worker_loop(member); });
}

void WorkerCrew::reap_locked() {
  for (auto it = members_.begin(); it != members_.end();) {
    // A done member holds no locks anymore, so joining under the mutex is
    // safe (and keeps the list mutation race-free).
    if (it->done.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = members_.erase(it);
    } else {
      ++it;
    }
  }
}

void WorkerCrew::resize(std::size_t target) {
  if (target < 1) target = 1;
  std::size_t poisons = 0;
  {
    const std::lock_guard lock(mutex_);
    if (halted_) return;
    reap_locked();
    target_ = target;
    while (active_ < target_) spawn_locked();
    if (active_ > target_) poisons = active_ - target_;
  }
  for (std::size_t i = 0; i < poisons; ++i) {
    RequestJob token;
    token.poison = true;
    queue_.push_control(std::move(token));
  }
}

void WorkerCrew::halt() {
  {
    const std::lock_guard lock(mutex_);
    if (halted_) return;
    halted_ = true;
  }
  queue_.close();
  // members_ is stable now: resize() refuses after halted_, and workers
  // only mark themselves done.  Join outside the lock — exiting workers
  // take it to decrement active_.
  for (Member& member : members_) {
    if (member.thread.joinable()) member.thread.join();
  }
  const std::lock_guard lock(mutex_);
  members_.clear();
}

std::size_t WorkerCrew::target() const {
  const std::lock_guard lock(mutex_);
  return target_;
}

std::size_t WorkerCrew::active() const {
  const std::lock_guard lock(mutex_);
  return active_;
}

void WorkerCrew::worker_loop(Member* self) {
  for (;;) {
    std::optional<RequestJob> job = queue_.pop();
    if (!job) break;  // queue closed and drained
    if (job->poison) {
      const std::lock_guard lock(mutex_);
      if (active_ > target_) break;  // shrink: this worker retires
      continue;  // stale token — a grow landed since the shrink; discard
    }
    execute_(*job);
  }
  {
    const std::lock_guard lock(mutex_);
    --active_;
  }
  self->done.store(true, std::memory_order_release);
}

// -------------------------------------------------------------------- Server

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (config_.workers < 1) config_.workers = 1;
  if (config_.cache_entries > 0) {
    cache_ = std::make_unique<FrontCache>(config_.cache_entries, metrics_);
  }
  if (config_.eval_threads != 1) {
    eval_pool_ = std::make_unique<ThreadPool>(config_.eval_threads);
  }
  queue_ = std::make_unique<BoundedQueue<RequestJob>>(config_.queue_depth);
  crew_ = std::make_unique<WorkerCrew>(
      *queue_, [this](RequestJob& job) { execute_job(job); });
  handler_context_.metrics = metrics_;
  handler_context_.cache = cache_.get();
  handler_context_.pool = eval_pool_.get();
  handler_context_.archive = config_.archive;
}

Server::~Server() { stop(); }

std::size_t Server::queue_size() const { return queue_->size(); }
std::size_t Server::queue_capacity() const { return queue_->capacity(); }
std::size_t Server::worker_target() const { return crew_->target(); }
std::size_t Server::worker_active() const { return crew_->active(); }
std::size_t Server::eval_threads() const {
  return eval_pool_ ? eval_pool_->size() : 1;
}

void Server::set_queue_capacity(std::size_t depth) {
  queue_->set_capacity(depth);
  metric_queue_depth_->set(static_cast<double>(queue_->size()));
}

void Server::set_cache_capacity(std::size_t entries) {
  if (cache_ != nullptr) cache_->set_capacity(entries);
}

void Server::set_workers(std::size_t count) {
  crew_->resize(count);
  if (metric_workers_ != nullptr) {
    metric_workers_->set(static_cast<double>(crew_->target()));
  }
}

void Server::start() {
  if (started_.exchange(true)) {
    throw std::logic_error("server already started");
  }

  metric_connections_ = &metrics_->counter("serve.connections");
  metric_requests_ = &metrics_->counter("serve.requests");
  metric_responses_ok_ = &metrics_->counter("serve.responses_ok");
  metric_errors_ = &metrics_->counter("serve.errors");
  metric_dropped_ = &metrics_->counter("serve.dropped");
  metric_deadline_expired_ = &metrics_->counter("serve.deadline_expired");
  metric_admin_actions_ = &metrics_->counter("serve.admin.actions");
  metric_halt_acceptor_ = &metrics_->counter("serve.lifecycle.halt_acceptor");
  metric_halt_queue_ = &metrics_->counter("serve.lifecycle.halt_queue");
  metric_halt_workers_ = &metrics_->counter("serve.lifecycle.halt_workers");
  metric_queue_depth_ = &metrics_->gauge("serve.queue_depth");
  metric_in_flight_ = &metrics_->gauge("serve.in_flight");
  metric_workers_ = &metrics_->gauge("serve.workers");
  metric_service_ = &metrics_->timer("serve.service_s");
  metric_queue_wait_ = &metrics_->timer("serve.queue_wait_s");
  metric_latency_ = &metrics_->histogram("serve.latency");

  uptime_.reset();
  crew_->start(config_.workers);
  metric_workers_->set(static_cast<double>(crew_->target()));
  listener_.start(
      config_.port, config_.max_frame_bytes,
      [this](const std::string& payload) { return process_payload(payload); },
      metric_errors_, metric_connections_);

  if (config_.log != nullptr) {
    JsonObject o;
    o.field("type", "config");
    o.field("service", "eus_served");
    o.field("port", static_cast<std::uint64_t>(port()));
    o.field("queue_depth", static_cast<std::uint64_t>(config_.queue_depth));
    o.field("workers", static_cast<std::uint64_t>(config_.workers));
    o.field("eval_threads", static_cast<std::uint64_t>(
                                eval_pool_ ? eval_pool_->size() : 1));
    o.field("cache_entries",
            static_cast<std::uint64_t>(cache_ ? cache_->capacity() : 0));
    config_.log->write(o.str());
  }
}

void Server::request_stop() noexcept {
  draining_.store(true, std::memory_order_relaxed);
  listener_.interrupt();
}

void Server::halt_acceptor() {
  if (acceptor_halted_.exchange(true)) return;
  draining_.store(true, std::memory_order_relaxed);
  listener_.halt_accept();
  if (metric_halt_acceptor_ != nullptr) metric_halt_acceptor_->add();
}

void Server::halt_queue() {
  if (queue_halted_.exchange(true)) return;
  queue_->close();
  if (metric_halt_queue_ != nullptr) metric_halt_queue_->add();
}

void Server::halt_workers() {
  if (workers_halted_.exchange(true)) return;
  // Workers drain the closed queue and resolve every pending promise;
  // only then can the connection readers (blocked on those futures) be
  // unblocked and joined.
  crew_->halt();
  listener_.halt_connections();
  if (metric_halt_workers_ != nullptr) metric_halt_workers_->add();
}

void Server::stop() {
  if (!started_.load()) return;
  halt_acceptor();
  halt_queue();
  halt_workers();
}

void Server::execute_job(RequestJob& job) {
  metric_queue_depth_->set(static_cast<double>(queue_->size()));
  const double queue_ms = job.waited.milliseconds();
  metric_queue_wait_->add(
      std::chrono::nanoseconds(static_cast<std::int64_t>(queue_ms * 1e6)));
  metric_in_flight_->set(static_cast<double>(
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1));

  std::optional<double> remaining_ms;
  if (job.request.deadline_ms > 0.0) {
    remaining_ms = job.request.deadline_ms - queue_ms;
  }
  HandleResult result;
  {
    const ScopedTimer timed(metric_service_);
    result = job.request.kind == RequestKind::kDelta
                 ? handle_delta(job.request, handler_context_, remaining_ms,
                                queue_ms)
                 : handle_allocate(job.request, handler_context_, remaining_ms,
                                   queue_ms);
  }
  if (result.code == kCodePartial) metric_deadline_expired_->add();
  job.promise.set_value(std::move(result));

  metric_in_flight_->set(static_cast<double>(
      in_flight_.fetch_sub(1, std::memory_order_relaxed) - 1));
}

std::string Server::process_payload(const std::string& payload) {
  const Stopwatch total;
  ServeRequest request;
  try {
    request = parse_request_text(payload);
  } catch (const ProtocolError& e) {
    // Framing is intact, the document is not: answer and keep the
    // connection.
    metric_errors_->add();
    return error_payload("", kCodeBadRequest, "error", e.what());
  }
  metric_requests_->add();

  if (request.kind == RequestKind::kHealthz) {
    return healthz_payload(request.id);
  }
  if (request.kind == RequestKind::kMetricsz) {
    return metricsz_payload(request.id);
  }
  if (request.kind == RequestKind::kAdminz) return adminz_payload(request);

  // Resolve catalog aliases to concrete specs *before* fingerprinting, so
  // cached fronts key on what actually runs — in-flight requests finish
  // against the catalog snapshot they arrived under, and a reload can
  // never make a cached entry answer for a different scenario.
  try {
    std::shared_ptr<const ScenarioCatalog> catalog;
    if (config_.catalog != nullptr) catalog = config_.catalog->snapshot();
    if (request.kind == RequestKind::kDelta) {
      request.delta.base = resolve_scenario(request.delta.base, catalog.get());
    } else {
      request.scenario = resolve_scenario(request.scenario, catalog.get());
    }
  } catch (const ProtocolError& e) {
    metric_errors_->add();
    log_request(request, kCodeBadRequest, total.milliseconds(), false);
    return error_payload(request.id, kCodeBadRequest, "error", e.what());
  }

  RequestJob job;
  job.request = request;
  std::future<HandleResult> future = job.promise.get_future();
  if (!queue_->try_push(std::move(job))) {
    metric_dropped_->add();
    const char* reason = draining_.load(std::memory_order_relaxed)
                             ? "server is draining; no new work accepted"
                             : "request queue is full; retry with backoff";
    log_request(request, kCodeOverloaded, total.milliseconds(), true);
    return error_payload(request.id, kCodeOverloaded, "overloaded", reason);
  }
  metric_queue_depth_->set(static_cast<double>(queue_->size()));

  HandleResult result = future.get();
  if (result.code == kCodeOk || result.code == kCodePartial) {
    metric_responses_ok_->add();
  } else {
    metric_errors_->add();
  }
  metric_latency_->observe_seconds(total.seconds());
  log_request(request, result.code, total.milliseconds(), false);
  return std::move(result.payload);
}

std::string Server::healthz_payload(const std::string& id) const {
  JsonObject o = ok_response(id);
  o.field("service", "eus_served");
  o.field("uptime_s", uptime_.seconds());
  if (config_.state != nullptr) {
    o.field("phase", to_string(config_.state->phase()));
  }
  o.field("queue_depth", static_cast<std::uint64_t>(queue_->size()));
  o.field("queue_capacity", static_cast<std::uint64_t>(queue_->capacity()));
  o.field("in_flight", static_cast<std::uint64_t>(
                           in_flight_.load(std::memory_order_relaxed)));
  o.field("workers", static_cast<std::uint64_t>(crew_->target()));
  o.field("eval_threads",
          static_cast<std::uint64_t>(eval_pool_ ? eval_pool_->size() : 1));
  o.field("cache_size",
          static_cast<std::uint64_t>(cache_ ? cache_->size() : 0));
  if (config_.catalog != nullptr) {
    o.field("catalog_generation",
            static_cast<std::uint64_t>(config_.catalog->generation()));
    o.field("catalog_size",
            static_cast<std::uint64_t>(config_.catalog->snapshot()->size()));
  }
  if (config_.archive != nullptr) {
    o.field("archive_tenants",
            static_cast<std::uint64_t>(config_.archive->tenants()));
    o.field("archive_entries",
            static_cast<std::uint64_t>(config_.archive->entries()));
  }
  o.field("draining", draining_.load(std::memory_order_relaxed));
  return o.str();
}

std::string Server::metricsz_payload(const std::string& id) const {
  const MetricsSnapshot snap = metrics_->snapshot();
  JsonObject o = ok_response(id);
  o.field("uptime_s", uptime_.seconds());
  append_snapshot(o, snap);
  return o.str();
}

std::string Server::admin_config_payload(const std::string& id) const {
  JsonObject o = ok_response(id);
  o.field("action", "get-config");
  o.field("port", static_cast<std::uint64_t>(port()));
  if (config_.state != nullptr) {
    o.field("phase", to_string(config_.state->phase()));
  }
  o.field("queue_depth", static_cast<std::uint64_t>(queue_->capacity()));
  o.field("queue_size", static_cast<std::uint64_t>(queue_->size()));
  o.field("workers", static_cast<std::uint64_t>(crew_->target()));
  o.field("workers_active", static_cast<std::uint64_t>(crew_->active()));
  o.field("eval_threads",
          static_cast<std::uint64_t>(eval_pool_ ? eval_pool_->size() : 1));
  o.field("cache_entries",
          static_cast<std::uint64_t>(cache_ ? cache_->capacity() : 0));
  o.field("cache_size",
          static_cast<std::uint64_t>(cache_ ? cache_->size() : 0));
  o.field("max_frame_bytes",
          static_cast<std::uint64_t>(config_.max_frame_bytes));
  if (config_.catalog != nullptr) {
    o.field("catalog_generation",
            static_cast<std::uint64_t>(config_.catalog->generation()));
    o.field("catalog_size",
            static_cast<std::uint64_t>(config_.catalog->snapshot()->size()));
  }
  if (config_.archive != nullptr) {
    const tenant::ArchiveConfig& a = config_.archive->config();
    o.field("archive_tenants",
            static_cast<std::uint64_t>(config_.archive->tenants()));
    o.field("archive_max_tenants",
            static_cast<std::uint64_t>(a.max_tenants));
    o.field("archive_entries_per_tenant",
            static_cast<std::uint64_t>(a.entries_per_tenant));
    o.field("archive_genomes_per_entry",
            static_cast<std::uint64_t>(a.genomes_per_entry));
  }
  o.field("draining", draining_.load(std::memory_order_relaxed));
  return o.str();
}

std::string Server::adminz_payload(const ServeRequest& request) {
  const AdminRequest& admin = request.admin;
  metric_admin_actions_->add();
  const auto applied = [&](const char* extra_key, std::uint64_t extra) {
    JsonObject o = ok_response(request.id);
    o.field("action", to_string(admin.action));
    o.field(extra_key, extra);
    return o.str();
  };
  switch (admin.action) {
    case AdminAction::kGetConfig:
      return admin_config_payload(request.id);
    case AdminAction::kSetQueueDepth:
      set_queue_capacity(admin.value);
      return applied("queue_depth", queue_->capacity());
    case AdminAction::kSetCacheEntries:
      if (cache_ == nullptr) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             "front cache is disabled (cache_entries=0); "
                             "set-cache-entries has no target");
      }
      set_cache_capacity(admin.value);
      return applied("cache_entries", cache_->capacity());
    case AdminAction::kSetWorkers:
      set_workers(admin.value);
      return applied("workers", crew_->target());
    case AdminAction::kCatalogReload:
      return catalog_reload_payload(config_.catalog, admin, request.id);
    case AdminAction::kEnableBackend:
    case AdminAction::kDisableBackend:
    case AdminAction::kFleetReload:
      return error_payload(request.id, kCodeBadRequest, "error",
                           "this is a single eus_served daemon, not an "
                           "eus_router; fleet verbs have no target here");
    case AdminAction::kArchiveStats: {
      if (config_.archive == nullptr) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             "no warm-start archive configured "
                             "(--archive-tenants=0); archive verbs have no "
                             "target");
      }
      JsonObject o = ok_response(request.id);
      o.field("action", "archive-stats");
      o.field("tenants",
              static_cast<std::uint64_t>(config_.archive->tenants()));
      o.field("entries",
              static_cast<std::uint64_t>(config_.archive->entries()));
      o.field("genomes",
              static_cast<std::uint64_t>(config_.archive->genomes()));
      std::string per_tenant = "[";
      bool first = true;
      for (const tenant::TenantStats& s : config_.archive->stats()) {
        if (!first) per_tenant += ',';
        first = false;
        JsonObject t;
        t.field("tenant", s.tenant);
        t.field("entries", static_cast<std::uint64_t>(s.entries));
        t.field("genomes", static_cast<std::uint64_t>(s.genomes));
        t.field("cap", static_cast<std::uint64_t>(s.cap));
        t.field("warm_hits", s.warm_hits);
        t.field("misses", s.misses);
        per_tenant += t.str();
      }
      per_tenant += ']';
      o.raw("per_tenant", per_tenant);
      return o.str();
    }
    case AdminAction::kArchiveFlush: {
      if (config_.archive == nullptr) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             "no warm-start archive configured "
                             "(--archive-tenants=0); archive verbs have no "
                             "target");
      }
      const std::size_t flushed = config_.archive->flush(admin.name);
      return applied("flushed", static_cast<std::uint64_t>(flushed));
    }
    case AdminAction::kArchiveCap: {
      if (config_.archive == nullptr) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             "no warm-start archive configured "
                             "(--archive-tenants=0); archive verbs have no "
                             "target");
      }
      if (!config_.archive->set_tenant_cap(admin.name, admin.value)) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             "archive-cap value must be >= 1");
      }
      return applied("cap", static_cast<std::uint64_t>(admin.value));
    }
  }
  return error_payload(request.id, kCodeInternal, "error",
                       "unhandled admin action");
}

void Server::log_request(const ServeRequest& request, int code,
                         double total_ms, bool dropped) {
  if (config_.log == nullptr) return;
  JsonObject o;
  o.field("type", "serve_request");
  o.field("t_s", uptime_.seconds());
  append_request_fields(o, request);
  o.field("code", static_cast<std::int64_t>(code));
  o.field("dropped", dropped);
  o.field("total_ms", total_ms);
  config_.log->write(o.str());
}

}  // namespace eus::serve
