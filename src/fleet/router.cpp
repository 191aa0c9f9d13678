#include "fleet/router.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "serve/handlers.hpp"
#include "telemetry/json.hpp"
#include "util/json_value.hpp"

namespace eus::fleet {

namespace {

using serve::error_payload;
using serve::kCodeBadRequest;
using serve::kCodeInternal;
using serve::kCodeOk;
using serve::kCodeOverloaded;
using serve::ok_response;

/// The mode slug capabilities match against ("heuristic" | "nsga2" |
/// "pareto-query").
const char* mode_slug(const serve::ServeRequest& request) noexcept {
  return to_string(request.mode);
}

bool same_config(const BackendConfig& a, const BackendConfig& b) {
  return a.name == b.name && a.host == b.host && a.port == b.port &&
         a.capabilities == b.capabilities &&
         a.speed_factor == b.speed_factor && a.watts == b.watts &&
         a.max_in_flight == b.max_in_flight;
}

/// The status code a forwarded response carries (the router relays the
/// payload verbatim but still classifies it for metrics and the log).
int response_code(const std::string& payload) noexcept {
  try {
    return serve::response_code(util::parse_json(payload), kCodeOk);
  } catch (const std::exception&) {
    return kCodeInternal;
  }
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Router::Router(RouterConfig config) : config_(std::move(config)) {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  metric_requests_ = &metrics_->counter("fleet.requests");
  metric_responses_ok_ = &metrics_->counter("fleet.responses_ok");
  metric_errors_ = &metrics_->counter("fleet.errors");
  metric_retries_ = &metrics_->counter("fleet.retries");
  metric_no_backend_ = &metrics_->counter("fleet.no_backend");
  metric_upstream_failed_ = &metrics_->counter("fleet.upstream_failed");
  metric_backend_down_ = &metrics_->counter("fleet.backend.down");
  metric_backend_up_ = &metrics_->counter("fleet.backend.up");
  metric_probes_ = &metrics_->counter("fleet.probes");
  metric_admin_actions_ = &metrics_->counter("fleet.admin.actions");
  metric_fleet_reloads_ = &metrics_->counter("fleet.reloads");
  metric_backends_up_ = &metrics_->gauge("fleet.backends_up");
  metric_latency_ = &metrics_->histogram("fleet.latency");

  fleet_ = build_fleet(config_.fleet, nullptr);
}

Router::~Router() { stop(); }

std::shared_ptr<const Router::Fleet> Router::fleet_snapshot() const {
  const std::lock_guard lock(fleet_mutex_);
  return fleet_;
}

std::shared_ptr<Router::Fleet> Router::build_fleet(
    FleetConfig config, const Fleet* previous) const {
  auto fleet = std::make_shared<Fleet>();
  fleet->backends.reserve(config.backends.size());
  std::size_t up = 0;
  for (BackendConfig& bc : config.backends) {
    std::shared_ptr<Backend> backend;
    if (previous != nullptr) {
      // A backend surviving a reload unchanged keeps its whole runtime
      // state, including in-flight counts.  A changed descriptor gets a
      // fresh object (its scheduling-relevant fields are read without
      // locks, so they must stay immutable per Backend) but inherits the
      // health verdict so a reload never resets probe backoff.
      for (const auto& old : previous->backends) {
        if (old->config.name != bc.name) continue;
        if (same_config(old->config, bc)) {
          backend = old;
        } else {
          backend = std::make_shared<Backend>();
          backend->config = bc;
          backend->up.store(old->up.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
          backend->consecutive_failures.store(
              old->consecutive_failures.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
          backend->next_probe_ns.store(
              old->next_probe_ns.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
        }
        break;
      }
    }
    if (backend == nullptr) {
      backend = std::make_shared<Backend>();
      backend->config = bc;
    }
    // The config's enabled flag is declarative: a reload overrides any
    // earlier enable-backend/disable-backend toggle.
    backend->enabled.store(bc.enabled, std::memory_order_relaxed);
    backend->metric_requests =
        &metrics_->counter("fleet.backend." + bc.name + ".requests");
    backend->metric_failures =
        &metrics_->counter("fleet.backend." + bc.name + ".failures");
    backend->metric_in_flight =
        &metrics_->gauge("fleet.backend." + bc.name + ".in_flight");
    if (backend->up.load(std::memory_order_relaxed)) ++up;
    // Disabled backends stay on the ring so enable-backend needs no
    // rebuild — plan() filters them out.
    fleet->ring.add(bc.name, bc.speed_factor);
    fleet->backends.push_back(std::move(backend));
  }
  metric_backends_up_->set(static_cast<double>(up));
  return fleet;
}

void Router::start() {
  if (started_.exchange(true)) return;
  uptime_.reset();
  listener_.start(
      config_.port, config_.max_frame_bytes,
      [this](const std::string& payload) { return process_payload(payload); },
      metric_errors_);
  if (config_.health_period_s > 0.0) {
    prober_ = std::thread([this] { prober_loop(); });
  }
  if (config_.log != nullptr) {
    JsonObject o;
    o.field("type", "config");
    o.field("service", "eus_router");
    o.field("port", static_cast<std::uint64_t>(port()));
    o.field("policy", to_string(config_.policy));
    o.field("health_period_s", config_.health_period_s);
    o.field("backends",
            static_cast<std::uint64_t>(fleet_snapshot()->backends.size()));
    config_.log->write(o.str());
  }
}

void Router::request_stop() noexcept {
  draining_.store(true, std::memory_order_relaxed);
  listener_.interrupt();
}

void Router::stop() {
  if (!started_.load()) return;
  draining_.store(true, std::memory_order_relaxed);
  listener_.halt_accept();
  {
    const std::lock_guard lock(prober_mutex_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  // In-flight proxied calls finish against backends that answer every
  // accepted request, so halting the readers drains rather than aborts.
  listener_.halt_connections();
}

std::string Router::process_payload(const std::string& payload) {
  serve::ServeRequest request;
  try {
    request = serve::parse_request_text(payload);
  } catch (const serve::ProtocolError& e) {
    metric_errors_->add();
    return error_payload("", kCodeBadRequest, "error", e.what());
  }
  metric_requests_->add();

  if (request.kind == serve::RequestKind::kHealthz) {
    return healthz_payload(request.id);
  }
  if (request.kind == serve::RequestKind::kMetricsz) {
    return metricsz_payload(request.id);
  }
  if (request.kind == serve::RequestKind::kAdminz) {
    return adminz_payload(request);
  }

  if (draining_.load(std::memory_order_relaxed)) {
    metric_errors_->add();
    return error_payload(request.id, kCodeOverloaded, "overloaded",
                         "router is draining; no new work accepted");
  }
  return route_allocate(std::move(request), payload);
}

std::string Router::route_allocate(serve::ServeRequest request,
                                   const std::string& payload) {
  const Stopwatch total;

  // Resolve catalog aliases before anything else: the fingerprint must key
  // on what actually runs (cache affinity survives reloads), and backends
  // carry no catalog, so an aliased request is re-rendered with its
  // concrete scenario while everything else forwards byte-for-byte.  A
  // delta request's scenario lives in delta.base.
  const bool is_delta = request.kind == serve::RequestKind::kDelta;
  const bool aliased = !ScenarioCatalog::is_builtin_name(
      is_delta ? request.delta.base.name : request.scenario.name);
  std::string forward_payload;
  try {
    std::shared_ptr<const ScenarioCatalog> catalog;
    if (config_.catalog != nullptr) catalog = config_.catalog->snapshot();
    if (is_delta) {
      request.delta.base =
          resolve_scenario(request.delta.base, catalog.get());
      forward_payload = aliased ? render_delta_request(request) : payload;
    } else {
      request.scenario = resolve_scenario(request.scenario, catalog.get());
      forward_payload = aliased ? render_allocate_request(request) : payload;
    }
  } catch (const serve::ProtocolError& e) {
    metric_errors_->add();
    log_request(request, kCodeBadRequest, total.milliseconds(), "", false);
    return error_payload(request.id, kCodeBadRequest, "error", e.what());
  }
  // Tenant-scoped requests route by tenant id, not fingerprint: every
  // scenario a tenant touches — and every delta against it — lands on the
  // backend holding that tenant's warm-start archive.
  const std::string affinity = request.tenant.empty()
                                   ? serve::request_fingerprint(request)
                                   : request.tenant;

  const std::shared_ptr<const Fleet> fleet = fleet_snapshot();
  const std::vector<std::shared_ptr<Backend>> candidates =
      plan(*fleet, request, affinity);
  if (candidates.empty()) {
    metric_no_backend_->add();
    metric_errors_->add();
    log_request(request, kCodeOverloaded, total.milliseconds(), "", false);
    return error_payload(request.id, kCodeOverloaded, "overloaded",
                         "no routable backend for this request (all down, "
                         "disabled, or not capable)");
  }

  // First eligible backend, with exactly one failover retry on a
  // different one — a cheap insurance policy, not a retry storm.
  bool retried = false;
  const std::size_t attempts = std::min<std::size_t>(2, candidates.size());
  for (std::size_t i = 0; i < attempts; ++i) {
    Backend& backend = *candidates[i];
    if (i > 0) {
      retried = true;
      metric_retries_->add();
    }
    std::optional<std::string> response = forward(backend, forward_payload);
    if (!response.has_value()) continue;
    const int code = response_code(*response);
    if (code == kCodeOk || code == serve::kCodePartial) {
      metric_responses_ok_->add();
    } else {
      metric_errors_->add();
    }
    metric_latency_->observe_seconds(total.seconds());
    log_request(request, code, total.milliseconds(), backend.config.name,
                retried);
    return *response;
  }
  metric_upstream_failed_->add();
  metric_errors_->add();
  log_request(request, kCodeBadGateway, total.milliseconds(),
              candidates[attempts - 1]->config.name, retried);
  return error_payload(request.id, kCodeBadGateway, "bad-gateway",
                       "every routable backend failed while forwarding "
                       "this request");
}

std::vector<std::shared_ptr<Router::Backend>> Router::plan(
    const Fleet& fleet, const serve::ServeRequest& request,
    const std::string& affinity) {
  const char* mode = mode_slug(request);
  const std::string& scenario_name =
      request.kind == serve::RequestKind::kDelta ? request.delta.base.name
                                                 : request.scenario.name;
  std::vector<std::shared_ptr<Backend>> capable;
  capable.reserve(fleet.backends.size());
  for (const auto& backend : fleet.backends) {
    if (!backend->enabled.load(std::memory_order_relaxed)) continue;
    if (!backend->up.load(std::memory_order_relaxed)) continue;
    if (!capabilities_allow(backend->config.capabilities, mode,
                            scenario_name)) {
      continue;
    }
    capable.push_back(backend);
  }
  if (capable.size() <= 1) return capable;

  // Backends under their in-flight cap route first; saturated ones stay
  // as failover targets only (their own bounded queue is the real
  // backpressure, the cap just steers load away from them).
  const auto saturated = [](const Backend& b) {
    return b.in_flight.load(std::memory_order_relaxed) >=
           b.config.max_in_flight;
  };

  std::vector<std::shared_ptr<Backend>> order;
  order.reserve(capable.size());
  const bool cacheable = request.mode != serve::ModeKind::kHeuristic;
  if (cacheable) {
    // Cache/archive affinity: walk the consistent-hash ring from the
    // affinity key's owner so repeated identical requests (and a tenant's
    // whole request stream) land on the backend already holding the cached
    // front or the tenant's archive.
    for (const std::string& name : fleet.ring.preference(affinity)) {
      for (const auto& backend : capable) {
        if (backend->config.name == name) {
          order.push_back(backend);
          break;
        }
      }
    }
  } else {
    std::vector<Candidate> snapshot;
    snapshot.reserve(capable.size());
    std::vector<std::shared_ptr<Backend>> pool;
    for (const auto& backend : capable) {
      if (saturated(*backend)) continue;
      snapshot.push_back({backend->config.name, backend->config.speed_factor,
                          backend->config.watts,
                          backend->in_flight.load(std::memory_order_relaxed)});
      pool.push_back(backend);
    }
    if (!pool.empty()) {
      const std::size_t winner = choose_backend(
          config_.policy, snapshot, request_cost_units(request),
          rr_ticket_.fetch_add(1, std::memory_order_relaxed));
      order.push_back(pool[winner]);
    }
    for (const auto& backend : capable) {
      if (order.empty() || backend != order.front()) {
        order.push_back(backend);
      }
    }
  }
  // Stable-partition the saturated backends to the back (preserving the
  // affinity/policy order within each class).
  std::stable_partition(
      order.begin(), order.end(),
      [&](const std::shared_ptr<Backend>& b) { return !saturated(*b); });
  return order;
}

std::optional<std::string> Router::forward(Backend& backend,
                                           const std::string& payload) {
  backend.metric_requests->add();
  backend.metric_in_flight->set(static_cast<double>(
      backend.in_flight.fetch_add(1, std::memory_order_relaxed) + 1));

  serve::ClientConnection connection;
  {
    const std::lock_guard lock(backend.pool_mutex);
    if (!backend.pool.empty()) {
      connection = std::move(backend.pool.back());
      backend.pool.pop_back();
    }
  }
  std::optional<std::string> response;
  try {
    if (!connection.connected()) {
      connection.connect(backend.config.port);
      if (config_.backend_timeout_ms > 0.0) {
        connection.set_timeout_ms(
            static_cast<long>(config_.backend_timeout_ms));
      }
    }
    response = connection.call(payload);
  } catch (const std::exception&) {
    response.reset();
  }

  backend.metric_in_flight->set(static_cast<double>(
      backend.in_flight.fetch_sub(1, std::memory_order_relaxed) - 1));
  if (response.has_value()) {
    const std::lock_guard lock(backend.pool_mutex);
    backend.pool.push_back(std::move(connection));
  } else {
    // Passive health: a transport failure marks the backend down on the
    // spot; the prober brings it back when healthz answers again.
    backend.metric_failures->add();
    mark_down(backend);
  }
  return response;
}

void Router::mark_down(Backend& backend) {
  const std::uint64_t failures =
      backend.consecutive_failures.fetch_add(1, std::memory_order_relaxed) +
      1;
  // Exponential probe backoff: period, 2x, 4x, ... capped at
  // max_backoff_s so a dead backend is not hammered but recovery is
  // noticed within a bounded window.
  const double base =
      config_.health_period_s > 0.0 ? config_.health_period_s : 1.0;
  double delay = base;
  for (std::uint64_t i = 1; i < failures && delay < config_.max_backoff_s;
       ++i) {
    delay *= 2.0;
  }
  if (delay > config_.max_backoff_s) delay = config_.max_backoff_s;
  backend.next_probe_ns.store(
      now_ns() + static_cast<std::int64_t>(delay * 1e9),
      std::memory_order_relaxed);
  if (backend.up.exchange(false, std::memory_order_relaxed)) {
    metric_backend_down_->add();
    // Drop pooled connections — they point at a dead peer.
    std::vector<serve::ClientConnection> stale;
    {
      const std::lock_guard lock(backend.pool_mutex);
      stale.swap(backend.pool);
    }
    const std::shared_ptr<const Fleet> fleet = fleet_snapshot();
    std::size_t up = 0;
    for (const auto& b : fleet->backends) {
      if (b->up.load(std::memory_order_relaxed)) ++up;
    }
    metric_backends_up_->set(static_cast<double>(up));
  }
}

void Router::mark_up(Backend& backend) {
  backend.consecutive_failures.store(0, std::memory_order_relaxed);
  if (!backend.up.exchange(true, std::memory_order_relaxed)) {
    metric_backend_up_->add();
    const std::shared_ptr<const Fleet> fleet = fleet_snapshot();
    std::size_t up = 0;
    for (const auto& b : fleet->backends) {
      if (b->up.load(std::memory_order_relaxed)) ++up;
    }
    metric_backends_up_->set(static_cast<double>(up));
  }
}

bool Router::probe_backend(Backend& backend) {
  metric_probes_->add();
  try {
    serve::ClientConnection probe;
    probe.connect(backend.config.port);
    probe.set_timeout_ms(static_cast<long>(config_.probe_timeout_ms));
    const std::string response =
        probe.call(R"({"type":"healthz","id":"fleet-probe"})");
    return !response.empty();
  } catch (const std::exception&) {
    return false;
  }
}

void Router::probe_now(bool force) {
  const std::shared_ptr<const Fleet> fleet = fleet_snapshot();
  const std::int64_t now = now_ns();
  for (const auto& backend : fleet->backends) {
    if (!force &&
        now < backend->next_probe_ns.load(std::memory_order_relaxed)) {
      continue;
    }
    if (probe_backend(*backend)) {
      mark_up(*backend);
      const double base =
          config_.health_period_s > 0.0 ? config_.health_period_s : 1.0;
      backend->next_probe_ns.store(
          now + static_cast<std::int64_t>(base * 1e9),
          std::memory_order_relaxed);
    } else {
      mark_down(*backend);
    }
  }
}

void Router::prober_loop() {
  const auto period = std::chrono::duration<double>(config_.health_period_s);
  std::unique_lock lock(prober_mutex_);
  while (!prober_stop_) {
    if (prober_cv_.wait_for(lock, period, [this] { return prober_stop_; })) {
      return;
    }
    lock.unlock();
    probe_now();
    lock.lock();
  }
}

bool Router::set_backend_enabled(const std::string& name, bool enabled) {
  const std::shared_ptr<const Fleet> fleet = fleet_snapshot();
  for (const auto& backend : fleet->backends) {
    if (backend->config.name == name) {
      backend->enabled.store(enabled, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void Router::reload_fleet(FleetConfig next) {
  const std::lock_guard lock(fleet_mutex_);
  fleet_ = build_fleet(std::move(next), fleet_.get());
  metric_fleet_reloads_->add();
}

std::vector<BackendInfo> Router::backend_info() const {
  const std::shared_ptr<const Fleet> fleet = fleet_snapshot();
  std::vector<BackendInfo> out;
  out.reserve(fleet->backends.size());
  for (const auto& backend : fleet->backends) {
    BackendInfo info;
    info.name = backend->config.name;
    info.port = backend->config.port;
    info.enabled = backend->enabled.load(std::memory_order_relaxed);
    info.up = backend->up.load(std::memory_order_relaxed);
    info.in_flight = backend->in_flight.load(std::memory_order_relaxed);
    info.max_in_flight = backend->config.max_in_flight;
    info.requests = backend->metric_requests->value();
    info.failures = backend->metric_failures->value();
    info.speed_factor = backend->config.speed_factor;
    info.watts = backend->config.watts;
    info.capabilities = backend->config.capabilities;
    out.push_back(std::move(info));
  }
  return out;
}

void Router::append_backends_json(std::string& out) const {
  out += '[';
  bool first = true;
  for (const BackendInfo& info : backend_info()) {
    if (!first) out += ',';
    first = false;
    JsonObject b;
    b.field("name", info.name);
    b.field("port", static_cast<std::uint64_t>(info.port));
    b.field("enabled", info.enabled);
    b.field("up", info.up);
    b.field("in_flight", static_cast<std::uint64_t>(info.in_flight));
    b.field("max_in_flight",
            static_cast<std::uint64_t>(info.max_in_flight));
    b.field("requests", info.requests);
    b.field("failures", info.failures);
    b.field("speed_factor", info.speed_factor);
    b.field("watts", info.watts);
    std::string caps = "[";
    for (std::size_t i = 0; i < info.capabilities.size(); ++i) {
      if (i > 0) caps += ',';
      caps += '"' + json_escape(info.capabilities[i]) + '"';
    }
    caps += ']';
    b.raw("capabilities", caps);
    out += b.str();
  }
  out += ']';
}

std::string Router::healthz_payload(const std::string& id) const {
  const std::shared_ptr<const Fleet> fleet = fleet_snapshot();
  std::size_t up = 0;
  std::size_t enabled = 0;
  for (const auto& backend : fleet->backends) {
    if (backend->up.load(std::memory_order_relaxed)) ++up;
    if (backend->enabled.load(std::memory_order_relaxed)) ++enabled;
  }
  JsonObject o = ok_response(id);
  o.field("service", "eus_router");
  o.field("uptime_s", uptime_.seconds());
  o.field("policy", to_string(config_.policy));
  o.field("backends", static_cast<std::uint64_t>(fleet->backends.size()));
  o.field("backends_up", static_cast<std::uint64_t>(up));
  o.field("backends_enabled", static_cast<std::uint64_t>(enabled));
  if (config_.catalog != nullptr) {
    o.field("catalog_generation",
            static_cast<std::uint64_t>(config_.catalog->generation()));
    o.field("catalog_size",
            static_cast<std::uint64_t>(config_.catalog->snapshot()->size()));
  }
  o.field("draining", draining_.load(std::memory_order_relaxed));
  return o.str();
}

std::string Router::metricsz_payload(const std::string& id) const {
  const MetricsSnapshot snap = metrics_->snapshot();
  JsonObject o = ok_response(id);
  o.field("service", "eus_router");
  o.field("uptime_s", uptime_.seconds());
  append_snapshot(o, snap);
  return o.str();
}

std::string Router::admin_config_payload(const std::string& id) const {
  JsonObject o = ok_response(id);
  o.field("action", "get-config");
  o.field("service", "eus_router");
  o.field("port", static_cast<std::uint64_t>(port()));
  o.field("policy", to_string(config_.policy));
  o.field("health_period_s", config_.health_period_s);
  o.field("probe_timeout_ms", config_.probe_timeout_ms);
  o.field("max_backoff_s", config_.max_backoff_s);
  o.field("max_frame_bytes",
          static_cast<std::uint64_t>(config_.max_frame_bytes));
  std::string backends;
  append_backends_json(backends);
  o.raw("backends", backends);
  if (config_.catalog != nullptr) {
    o.field("catalog_generation",
            static_cast<std::uint64_t>(config_.catalog->generation()));
    o.field("catalog_size",
            static_cast<std::uint64_t>(config_.catalog->snapshot()->size()));
  }
  o.field("draining", draining_.load(std::memory_order_relaxed));
  return o.str();
}

std::string Router::adminz_payload(const serve::ServeRequest& request) {
  const serve::AdminRequest& admin = request.admin;
  metric_admin_actions_->add();
  const auto applied = [&](const char* extra_key, std::uint64_t extra) {
    JsonObject o = ok_response(request.id);
    o.field("action", to_string(admin.action));
    o.field(extra_key, extra);
    return o.str();
  };
  switch (admin.action) {
    case serve::AdminAction::kGetConfig:
      return admin_config_payload(request.id);
    case serve::AdminAction::kEnableBackend:
    case serve::AdminAction::kDisableBackend: {
      const bool enable =
          admin.action == serve::AdminAction::kEnableBackend;
      if (!set_backend_enabled(admin.name, enable)) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             "no backend named \"" + admin.name +
                                 "\" in the fleet");
      }
      JsonObject o = ok_response(request.id);
      o.field("action", to_string(admin.action));
      o.field("backend", admin.name);
      o.field("enabled", enable);
      return o.str();
    }
    case serve::AdminAction::kFleetReload: {
      FleetConfig next;
      try {
        next = parse_fleet_config(admin.fleet);
      } catch (const FleetConfigError& e) {
        return error_payload(request.id, kCodeBadRequest, "error",
                             std::string("fleet rejected: ") + e.what());
      }
      const std::size_t backends = next.backends.size();
      reload_fleet(std::move(next));
      return applied("backends", backends);
    }
    case serve::AdminAction::kCatalogReload:
      return serve::catalog_reload_payload(config_.catalog, admin,
                                           request.id);
    case serve::AdminAction::kSetQueueDepth:
    case serve::AdminAction::kSetCacheEntries:
    case serve::AdminAction::kSetWorkers:
      return error_payload(request.id, kCodeBadRequest, "error",
                           "eus_router has no queue, cache or worker pool; "
                           "send set-* verbs to a backend daemon");
    case serve::AdminAction::kArchiveStats:
    case serve::AdminAction::kArchiveFlush:
    case serve::AdminAction::kArchiveCap:
      return error_payload(request.id, kCodeBadRequest, "error",
                           "eus_router holds no warm-start archive; send "
                           "archive-* verbs to the backend owning the "
                           "tenant (the ring's preference for its id)");
  }
  return error_payload(request.id, kCodeInternal, "error",
                       "unhandled admin action");
}

void Router::log_request(const serve::ServeRequest& request, int code,
                         double total_ms, const std::string& backend,
                         bool retried) {
  if (config_.log == nullptr) return;
  JsonObject o;
  o.field("type", "fleet_request");
  o.field("t_s", uptime_.seconds());
  serve::append_request_fields(o, request);
  o.field("code", static_cast<std::int64_t>(code));
  if (!backend.empty()) o.field("backend", backend);
  o.field("retried", retried);
  o.field("total_ms", total_ms);
  config_.log->write(o.str());
}

}  // namespace eus::fleet
