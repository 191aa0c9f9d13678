// The serve-fleet workload: one fleet::Router in front of two serve::Server
// backends (one worker each, a FrontCache, a tenant::ArchiveStore primed
// during set-up), driven from this process over `threads`
// ClientConnections.
//
//   Phase B  closed loop: every connection sends the mix back to back until
//            a fixed batch of requests is done, in five equal pieces with
//            a barrier between them.  The fastest piece's wall time is the
//            workload's run_s; requests per second is the capacity.
//   Phase A  (traced run) open loop: kPhaseARequests requests with seeded
//            Poisson arrivals at kRatePerSecond, well below capacity; every
//            request is timed from when it was due.
//
// The mix is assumed, not taken from observed traffic; its shares come from
// what the metrics need.  The three p99 classes (cold = cold + deadline,
// hit = cache hit + pareto-query, delta) get equal shares, since each needs
// the same 1000 Phase A samples.  Within a class, the side kind that has no
// p99 of its own (deadline, pareto-query) gets one slot and the main kind
// the rest; three slots per class is the smallest size at which the main
// kind outnumbers the side kind, and cold requests need their own p99
// (service time).  heuristic:min-min has no percentile and gets one slot.
// Per block of 10 requests shuffled by the seed: 2 cold nsga2 requests with
// fresh seeds, 1 cold nsga2 request whose deadline is too tight for its
// budget (206 partial front), 2 repeated nsga2 requests and 1 pareto-query
// that the front cache answers, 3 warm tenant deltas against the primed
// archives, and 1 heuristic:min-min request.  Request texts are a pure
// function of (seed, phase, index), so a seed fixes the inputs.
//
// After the timed phases, untimed: a seeded sample of routed cold responses
// is compared byte for byte (timing block aside) with serve::handle_allocate
// run in process on the same text, and its fronts are kept for the
// hypervolume.  The traced run adds Phase A with per-request spans, a
// second Phase B pass whose pieces alternate between untraced and traced
// (for the tracing overhead), routed versus direct round trips for cache
// hits, the no-deadline fronts of a sample of deadline requests, and layer
// micro-timings on the deadline scenario.

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/problem.hpp"
#include "fleet/router.hpp"
#include "harness.hpp"
#include "sched/bounds.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tenant/archive_store.hpp"
#include "util/json_value.hpp"

namespace perfbench {
namespace {

using namespace eus;

constexpr std::size_t kBackends = 2;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kHitKeys = 8;
constexpr double kRatePerSecond = 250.0;
// Front-cache entries per backend: more than the distinct results of a run,
// so the primed hit keys are never evicted by cold results.
constexpr std::size_t kCacheEntries = std::size_t{1} << 15;
constexpr std::size_t kPhaseARequests = 5600;  // 1120 of the rarest p99 set
constexpr double kPhaseBPerSecond = 1500.0;   // Phase B batch / --seconds
constexpr std::size_t kPieces = 5;            // Phase B runs in 5 pieces
constexpr double kDeadlineMs = 4.0;
constexpr std::size_t kColdSample = 1024;
constexpr std::size_t kDeadlineSample = 48;
constexpr std::size_t kHopPairs = 1200;
constexpr long kClientTimeoutMs = 60000;
// Untimed set-ups before the timed ones.  On the baseline machine a process
// that starts after an idle spell runs 2-4x slower for its first few hundred
// milliseconds; set-ups timed in that window read twice as long.
constexpr double kWarmUpSeconds = 1.0;

enum Kind { kCold, kDeadline, kHit, kQuery, kDelta, kHeuristic, kKinds };
constexpr const char* kKindNames[kKinds] = {"cold",  "deadline", "hit",
                                            "query", "delta",    "heuristic"};
constexpr std::size_t kBlockSize = 10;
constexpr std::size_t kPerBlock[kKinds] = {2, 1, 2, 1, 3, 1};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31U);
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11U) * 0x1.0p-53;
}

/// Request j's class: each block of kBlockSize holds kPerBlock of every
/// class, in an order shuffled by (seed, phase, block).
Kind kind_of(std::uint64_t seed, int phase, std::size_t j) {
  Kind block[kBlockSize];
  std::size_t n = 0;
  for (int k = 0; k < kKinds; ++k) {
    for (std::size_t c = 0; c < kPerBlock[k]; ++c) block[n++] = static_cast<Kind>(k);
  }
  std::uint64_t h = mix64(seed ^ mix64((static_cast<std::uint64_t>(phase) << 40U) |
                                       (j / kBlockSize)));
  for (std::size_t i = kBlockSize - 1; i > 0; --i) {
    h = mix64(h);
    std::swap(block[i], block[h % (i + 1)]);
  }
  return block[j % kBlockSize];
}

std::string custom(std::size_t tasks, int window_s, std::uint64_t seed) {
  return R"({"name":"custom","tasks":)" + std::to_string(tasks) +
         R"(,"window_s":)" + std::to_string(window_s) + R"(,"seed":)" +
         std::to_string(seed) + "}";
}

// Budgets per class.  Cold requests are small so transport and queueing
// show; deadline requests ask for far more generations than their budget
// allows; tenant bases are converged once during set-up.
const std::string kColdBudget =
    R"({"population":8,"generations":8,"seeds":["min-energy"]})";
const std::string kDeadlineBudget =
    R"({"population":16,"generations":400,"seeds":["min-energy","max-utility"]})";
const std::string kHitBudget =
    R"({"population":16,"generations":16,"seeds":["min-energy"]})";
const std::string kTenantBudget =
    R"({"population":16,"generations":32,"seeds":["min-energy","max-utility"]})";
constexpr std::size_t kDeadlineTasks = 40;

std::uint64_t tenant_seed(std::uint64_t seed, std::size_t t) {
  return 1000 + (mix64(seed * 64 + t) % 1000000);
}
std::uint64_t hit_seed(std::uint64_t seed, std::size_t k) {
  return 2000000 + (mix64(seed * 64 + 32 + k) % 1000000);
}
/// Fresh per request: distinct across phases and indices.
std::uint64_t fresh_seed(std::uint64_t seed, int phase, std::size_t j) {
  return (seed % 100000) * std::uint64_t{100000000} +
         static_cast<std::uint64_t>(phase) * std::uint64_t{10000000} + j;
}

std::string tenant_allocate(std::uint64_t seed, std::size_t t) {
  return R"({"type":"allocate","id":"prime-t)" + std::to_string(t) +
         R"(","mode":"nsga2","tenant":"tenant-)" + std::to_string(t) +
         R"(","scenario":)" + custom(24, 60, tenant_seed(seed, t)) +
         R"(,"nsga2":)" + kTenantBudget + "}";
}
std::string hit_allocate(std::uint64_t seed, std::size_t k,
                         const std::string& id) {
  return R"({"type":"allocate","id":")" + id +
         R"(","mode":"nsga2","scenario":)" + custom(20, 40, hit_seed(seed, k)) +
         R"(,"nsga2":)" + kHitBudget + "}";
}

/// What set-up learned about the primed cache entries.
struct Primed {
  std::vector<double> query_max_energy;  ///< per hit key, always satisfiable
  std::vector<std::size_t> owner;        ///< backend holding each hit key
};

std::string make_request(std::uint64_t seed, int phase, std::size_t j,
                         const Primed& primed) {
  const Kind kind = kind_of(seed, phase, j);
  const std::string id = "p" + std::to_string(phase) + "-" + std::to_string(j);
  const std::string head = R"({"type":")" +
                           std::string(kind == kDelta ? "delta" : "allocate") +
                           R"(","id":")" + id + "\",";
  const std::uint64_t pick = mix64(seed ^ mix64(fresh_seed(seed, phase, j)));
  switch (kind) {
    case kCold:
      return head + R"("mode":"nsga2","scenario":)" +
             custom(16, 30, fresh_seed(seed, phase, j)) + R"(,"nsga2":)" +
             kColdBudget + "}";
    case kDeadline:
      return head + R"("mode":"nsga2","scenario":)" +
             custom(kDeadlineTasks, 60, fresh_seed(seed, phase, j)) +
             R"(,"nsga2":)" + kDeadlineBudget + R"(,"deadline_ms":)" +
             json_number(kDeadlineMs) + "}";
    case kHit:
      return hit_allocate(seed, pick % kHitKeys, id);
    case kQuery: {
      const std::size_t k = pick % kHitKeys;
      return head + R"("mode":"pareto-query","scenario":)" +
             custom(20, 40, hit_seed(seed, k)) + R"(,"nsga2":)" + kHitBudget +
             R"(,"query":{"max_energy":)" +
             json_number(primed.query_max_energy[k]) + "}}";
    }
    case kDelta: {
      const std::size_t t = pick % kTenants;
      const std::size_t add = 1 + (pick >> 8U) % 3;
      return head + R"("tenant":"tenant-)" + std::to_string(t) +
             R"(","base":)" + custom(24, 60, tenant_seed(seed, t)) +
             R"(,"mutations":[{"op":"add-tasks","count":)" +
             std::to_string(add) +
             R"(}],"polish_generations":2,"cold_fallback":false,"nsga2":)" +
             kTenantBudget + "}";
    }
    case kHeuristic:
    case kKinds:
      break;
  }
  return head + R"("mode":"heuristic:min-min","scenario":)" +
         custom(24, 60, fresh_seed(seed, phase, j)) + "}";
}

/// One finished request as the client saw it (times in harness seconds).
/// `key`, `queue_ms` and `service_ms` are filled only when traced.
struct Sample {
  Kind kind = kCold;
  double due = 0.0;
  double send = 0.0;
  double recv = 0.0;
  bool failed = false;  ///< transport failure: no payload
  std::string payload;
  std::string key;
  double queue_ms = 0.0;
  double service_ms = 0.0;
};

struct Fleet {
  std::vector<std::unique_ptr<MetricsRegistry>> backend_metrics;
  std::vector<std::unique_ptr<tenant::ArchiveStore>> archives;
  std::vector<std::unique_ptr<serve::Server>> servers;
  MetricsRegistry router_metrics;
  std::unique_ptr<fleet::Router> router;

  Fleet() {
    fleet::FleetConfig config;
    for (std::size_t b = 0; b < kBackends; ++b) {
      backend_metrics.push_back(std::make_unique<MetricsRegistry>());
      archives.push_back(std::make_unique<tenant::ArchiveStore>(
          tenant::ArchiveConfig{}, backend_metrics.back().get()));
      serve::ServerConfig server_config;
      server_config.workers = 1;
      server_config.cache_entries = kCacheEntries;
      server_config.metrics = backend_metrics.back().get();
      server_config.archive = archives.back().get();
      servers.push_back(std::make_unique<serve::Server>(server_config));
      servers.back()->start();
      fleet::BackendConfig backend;
      backend.name = "bk" + std::to_string(b);
      backend.port = servers.back()->port();
      config.backends.push_back(std::move(backend));
    }
    fleet::RouterConfig router_config;
    router_config.fleet = std::move(config);
    router_config.metrics = &router_metrics;
    router = std::make_unique<fleet::Router>(std::move(router_config));
    router->start();
  }
  ~Fleet() {
    router->stop();
    for (const auto& server : servers) server->stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::uint64_t backend_requests(std::size_t b) {
    return router_metrics
        .counter("fleet.backend.bk" + std::to_string(b) + ".requests")
        .value();
  }
};

int response_code(const std::string& payload) {
  return static_cast<int>(util::parse_json(payload).number_or("code", 0.0));
}

void expect_ok(const std::string& payload, const char* what) {
  if (response_code(payload) != serve::kCodeOk) {
    throw std::runtime_error(std::string(what) + " failed: " + payload);
  }
}

std::vector<EUPoint> parse_front(const util::JsonValue& doc) {
  std::vector<EUPoint> front;
  if (const util::JsonValue* f = doc.get("front"); f != nullptr) {
    for (const util::JsonValue& p : f->array) {
      front.push_back({p.number_or("energy", 0.0), p.number_or("utility", 0.0)});
    }
  }
  return front;
}

/// Boots the fleet, waits for the router's healthz, primes the tenant
/// archives and the hit keys' cache entries.
std::unique_ptr<Fleet> set_up(std::uint64_t seed, Primed& primed,
                              double& boot_s, double& prime_s) {
  const double t0 = now_s();
  auto fleet = std::make_unique<Fleet>();
  serve::ClientConnection client;
  client.connect(fleet->router->port());
  client.set_timeout_ms(kClientTimeoutMs);
  expect_ok(client.call(R"({"type":"healthz"})"), "router healthz");
  boot_s = now_s() - t0;

  const double t1 = now_s();
  for (std::size_t t = 0; t < kTenants; ++t) {
    expect_ok(client.call(tenant_allocate(seed, t)), "tenant priming");
  }
  primed = {};
  for (std::size_t k = 0; k < kHitKeys; ++k) {
    std::vector<std::uint64_t> before;
    for (std::size_t b = 0; b < kBackends; ++b) {
      before.push_back(fleet->backend_requests(b));
    }
    const std::string payload =
        client.call(hit_allocate(seed, k, "prime-h" + std::to_string(k)));
    expect_ok(payload, "cache priming");
    const std::vector<EUPoint> front = parse_front(util::parse_json(payload));
    if (front.empty()) throw std::runtime_error("primed front is empty");
    primed.query_max_energy.push_back(front[front.size() / 2].energy);
    std::size_t owner = 0;
    for (std::size_t b = 0; b < kBackends; ++b) {
      if (fleet->backend_requests(b) > before[b]) owner = b;
    }
    primed.owner.push_back(owner);
  }
  prime_s = now_s() - t1;
  return fleet;
}

/// Sends one request on `client` (reconnecting after a failure) and fills
/// the sample; with `trace`, also reads the id and timing block as it goes.
void exchange(serve::ClientConnection& client, std::uint16_t port,
              const std::string& text, bool trace, Sample& s) {
  s.send = now_s();
  try {
    if (!client.connected()) {
      client.connect(port);
      client.set_timeout_ms(kClientTimeoutMs);
    }
    s.payload = client.call(text);
  } catch (const std::exception&) {
    s.failed = true;
    client.close();
  }
  s.recv = now_s();
  if (trace && !s.failed) {
    try {
      const util::JsonValue doc = util::parse_json(s.payload);
      s.key = doc.string_or("id", "");
      if (const util::JsonValue* timing = doc.get("timing"); timing != nullptr) {
        s.queue_ms = timing->number_or("queue_ms", 0.0);
        s.service_ms = timing->number_or("service_ms", 0.0);
      }
    } catch (const std::exception&) {
      // An unparseable payload fails the output checks in run.py.
    }
  }
}

struct Phase {
  std::vector<Sample> samples;
  std::vector<std::string> texts;  ///< request texts, parallel to samples
  double duration_s = 0.0;
  std::vector<double> piece_s;  ///< closed loop: wall time of each piece
};

/// Phase A: open loop.  Connections pull requests in schedule order and
/// wait until each is due, so a request whose connections are all busy
/// goes out late, and the lateness is part of its latency.
Phase open_loop(std::uint16_t port, std::uint64_t seed, std::size_t count,
                std::size_t connections, const Primed& primed, bool trace) {
  Phase phase;
  std::vector<double> due;
  double t = 0.0;
  for (std::size_t j = 0; j < count; ++j) {
    phase.texts.push_back(make_request(seed, 0, j, primed));
    t += -std::log1p(-unit(mix64(seed * 7919 + j))) / kRatePerSecond;
    due.push_back(t);
  }
  phase.samples.resize(count);
  std::atomic<std::size_t> next{0};
  const double start = now_s() + 0.05;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      serve::ClientConnection client;
      for (std::size_t j = next.fetch_add(1); j < count; j = next.fetch_add(1)) {
        Sample& s = phase.samples[j];
        s.kind = kind_of(seed, 0, j);
        s.due = start + due[j];
        std::this_thread::sleep_until(at_s(s.due));
        exchange(client, port, phase.texts[j], trace, s);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  phase.duration_s = now_s() - start;
  return phase;
}

/// Phase B: closed loop over a fixed batch, in kPieces equal pieces run one
/// after the other; phase_id keeps seeds fresh.  With `trace_odd_pieces`,
/// pieces 1, 3, ... read each response's id and timing block as traced
/// requests do, and the others do not, so the two kinds of piece can be
/// compared on the same batch.
Phase closed_loop(std::uint16_t port, std::uint64_t seed, int phase_id,
                  std::size_t count, std::size_t connections,
                  const Primed& primed, bool trace_odd_pieces) {
  const std::size_t per_piece = count / kPieces;
  count = per_piece * kPieces;
  Phase phase;
  for (std::size_t j = 0; j < count; ++j) {
    phase.texts.push_back(make_request(seed, phase_id, j, primed));
  }
  phase.samples.resize(count);
  std::array<std::atomic<std::size_t>, kPieces> next{};
  std::array<double, kPieces + 1> marks{};
  std::size_t piece = 0;
  marks[0] = now_s();
  std::barrier sync(static_cast<std::ptrdiff_t>(connections),
                    [&]() noexcept { marks[++piece] = now_s(); });
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      serve::ClientConnection client;
      for (std::size_t p = 0; p < kPieces; ++p) {
        for (std::size_t j = next[p].fetch_add(1); j < per_piece;
             j = next[p].fetch_add(1)) {
          const std::size_t i = p * per_piece + j;
          Sample& s = phase.samples[i];
          s.kind = kind_of(seed, phase_id, i);
          s.due = now_s();
          exchange(client, port, phase.texts[i], trace_odd_pieces && p % 2 == 1,
                   s);
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  phase.duration_s = marks[kPieces] - marks[0];
  for (std::size_t p = 0; p < kPieces; ++p) {
    phase.piece_s.push_back(marks[p + 1] - marks[p]);
  }
  return phase;
}

/// [kind, due_s, send_s, recv_s, code, cache, warm, generations,
///  evaluations, queue_ms, service_ms, front]; code -1 = no parseable
/// payload, cache/warm -1 = field absent.
std::string sample_json(const Sample& s) {
  int code = -1;
  int cache = -1;
  int warm = -1;
  double generations = 0.0;
  double evaluations = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  std::vector<EUPoint> front;
  if (!s.failed) {
    try {
      const util::JsonValue doc = util::parse_json(s.payload);
      code = static_cast<int>(doc.number_or("code", -1.0));
      if (const util::JsonValue* c = doc.get("cache"); c != nullptr) {
        cache = c->string == "hit" ? 1 : 0;
      }
      if (const util::JsonValue* w = doc.get("warm"); w != nullptr) {
        warm = w->boolean ? 1 : 0;
      }
      generations = doc.number_or("generations", 0.0);
      evaluations = doc.number_or("evaluations", 0.0);
      if (const util::JsonValue* timing = doc.get("timing"); timing != nullptr) {
        queue_ms = timing->number_or("queue_ms", 0.0);
        service_ms = timing->number_or("service_ms", 0.0);
      }
      front = parse_front(doc);
    } catch (const std::exception&) {
      code = -1;
    }
  }
  return "[\"" + std::string(kKindNames[s.kind]) + "\"," + json_number(s.due) +
         "," + json_number(s.send) + "," + json_number(s.recv) + "," +
         std::to_string(code) + "," + std::to_string(cache) + "," +
         std::to_string(warm) + "," + json_number(generations) + "," +
         json_number(evaluations) + "," + json_number(queue_ms) + "," +
         json_number(service_ms) + "," + front_json(front) + "]";
}

std::string phase_json(const Phase& phase) {
  std::vector<std::string> items;
  items.reserve(phase.samples.size());
  for (const Sample& s : phase.samples) items.push_back(sample_json(s));
  JsonObject o;
  o.field("duration_s", phase.duration_s);
  o.raw("piece_s", json_numbers(phase.piece_s));
  o.raw("samples", json_array(items));
  return o.str();
}

/// The response minus its timing block, which legitimately differs.
std::string without_timing(const std::string& payload) {
  const std::size_t at = payload.find(",\"timing\":{");
  if (at == std::string::npos) return payload;
  const std::size_t close = payload.find('}', at);
  return payload.substr(0, at) + payload.substr(close + 1);
}

/// Indices of a seeded sample of up to `n` samples of `kind` that
/// satisfy `keep`, ascending and distinct.
template <typename Keep>
std::vector<std::size_t> seeded_sample(const Phase& phase, Kind kind,
                                       std::size_t n, std::uint64_t seed,
                                       Keep&& keep) {
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < phase.samples.size(); ++i) {
    if (phase.samples[i].kind == kind && !phase.samples[i].failed &&
        keep(phase.samples[i])) {
      pool.push_back(i);
    }
  }
  std::vector<std::size_t> picked;
  for (std::size_t m = 0; m < n && !pool.empty(); ++m) {
    picked.push_back(pool[mix64(seed * 131 + m) % pool.size()]);
  }
  std::sort(picked.begin(), picked.end());
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

JsonObject bounds_of(const serve::ServeRequest& request) {
  const Scenario scenario = serve::build_scenario(request.scenario);
  const ObjectiveBounds bounds = compute_bounds(scenario.system, scenario.trace);
  JsonObject o;
  o.field("energy_lower", bounds.energy_lower);
  o.field("utility_upper", bounds.utility_upper_contention_free);
  return o;
}

/// Routed == direct on a seeded sample of cold responses: each must equal,
/// byte for byte apart from the timing block, serve::handle_allocate on
/// the same request text.  The fronts and scenario bounds are kept for the
/// hypervolume.
std::string cold_sample(const Phase& phase, std::uint64_t seed) {
  std::vector<std::string> items;
  for (const std::size_t i : seeded_sample(phase, kCold, kColdSample, seed,
                                           [](const Sample&) { return true; })) {
    const serve::ServeRequest request = serve::parse_request_text(phase.texts[i]);
    const serve::HandleResult direct =
        serve::handle_allocate(request, serve::HandlerContext{}, std::nullopt, 0.0);
    JsonObject o = bounds_of(request);
    o.field("same", without_timing(direct.payload) ==
                        without_timing(phase.samples[i].payload));
    o.raw("front",
          front_json(parse_front(util::parse_json(phase.samples[i].payload))));
    items.push_back(o.str());
  }
  return json_array(items);
}

/// The no-deadline front of a seeded sample of partial deadline responses.
std::string deadline_references(const Phase& phase, std::uint64_t seed) {
  std::vector<std::string> items;
  for (const std::size_t i :
       seeded_sample(phase, kDeadline, kDeadlineSample, seed, [](const Sample& s) {
         return response_code(s.payload) == serve::kCodePartial;
       })) {
    serve::ServeRequest request = serve::parse_request_text(phase.texts[i]);
    request.deadline_ms = 0.0;
    const serve::HandleResult full =
        serve::handle_allocate(request, serve::HandlerContext{}, std::nullopt, 0.0);
    JsonObject o = bounds_of(request);
    o.raw("partial",
          front_json(parse_front(util::parse_json(phase.samples[i].payload))));
    o.raw("full", front_json(parse_front(util::parse_json(full.payload))));
    o.field("full_code", static_cast<std::int64_t>(full.code));
    items.push_back(o.str());
  }
  return json_array(items);
}

/// Routed and direct round trips (ms) for the same cache-hit requests,
/// sent alternately through the router and to the owning backend.
std::string hop_pairs(Fleet& fleet, std::uint64_t seed, const Primed& primed) {
  serve::ClientConnection routed;
  routed.connect(fleet.router->port());
  routed.set_timeout_ms(kClientTimeoutMs);
  std::vector<serve::ClientConnection> direct(kBackends);
  for (std::size_t b = 0; b < kBackends; ++b) {
    direct[b].connect(fleet.servers[b]->port());
    direct[b].set_timeout_ms(kClientTimeoutMs);
  }
  std::vector<std::string> items;
  std::size_t misses = 0;
  for (std::size_t n = 0; n < kHopPairs; ++n) {
    const std::size_t k = n % kHitKeys;
    const std::string text = hit_allocate(seed, k, "hop-" + std::to_string(n));
    double times[2] = {0.0, 0.0};
    for (int leg = 0; leg < 2; ++leg) {
      const bool via_router = (leg == 0) == (n % 2 == 0);
      const double t = now_s();
      const std::string payload =
          via_router ? routed.call(text) : direct[primed.owner[k]].call(text);
      times[via_router ? 0 : 1] = (now_s() - t) * 1e3;
      if (payload.find("\"cache\":\"hit\"") == std::string::npos) ++misses;
    }
    items.push_back("[" + json_number(times[0]) + "," + json_number(times[1]) + "]");
  }
  JsonObject o;
  o.raw("pairs", json_array(items));
  o.field("misses", static_cast<std::uint64_t>(misses));
  return o.str();
}

/// Microseconds per parse_request_text and per request_fingerprint over
/// the workload's own request texts.
std::string protocol_timings(const std::vector<std::string>& texts,
                             Tracer& tracer) {
  std::vector<serve::ServeRequest> parsed;
  parsed.reserve(texts.size());
  const double t0 = now_s();
  for (const std::string& text : texts) parsed.push_back(serve::parse_request_text(text));
  const double t1 = now_s();
  std::size_t bytes = 0;
  for (const serve::ServeRequest& r : parsed) {
    bytes += serve::request_fingerprint(r).size();
  }
  const double t2 = now_s();
  tracer.add("serve.parse_request_text", -1, t0, t1);
  tracer.add("serve.request_fingerprint", -1, t1, t2);
  if (bytes == 0) throw std::runtime_error("empty fingerprints");
  const double n = static_cast<double>(texts.size());
  JsonObject o;
  o.field("parse_us", (t1 - t0) / n * 1e6);
  o.field("fingerprint_us", (t2 - t1) / n * 1e6);
  return o.str();
}

/// Layer timings on the deadline class's scenario shape: scenario build,
/// problem construction, heuristic seeds, evaluator paths.
std::string layer_timings(std::uint64_t seed, Tracer& tracer) {
  const serve::ServeRequest request = serve::parse_request_text(
      R"({"type":"allocate","mode":"nsga2","scenario":)" +
      custom(kDeadlineTasks, 60, fresh_seed(seed, 9, 0)) + "}");
  std::vector<double> build_s;
  std::vector<double> problem_s;
  std::optional<Scenario> scenario;
  for (int rep = 0; rep < 15; ++rep) {
    double t = now_s();
    scenario.emplace(serve::build_scenario(request.scenario));
    build_s.push_back(now_s() - t);
    tracer.add("workload.build", -1, t, now_s());
    t = now_s();
    const UtilityEnergyProblem problem(scenario->system, scenario->trace);
    problem_s.push_back(now_s() - t);
    tracer.add("sched.build", -1, t, now_s());
  }
  JsonObject o;
  o.field("workload_s", median(build_s));
  o.field("sched_s", median(problem_s));
  o.raw("seed_ms", seed_timings(*scenario, tracer));
  o.raw("evaluator", evaluator_timings(*scenario, seed, tracer));
  return o.str();
}

/// Request spans: the client's view (due -> recv), split into the wait
/// for a free connection and the round trip; the round trip's queue and
/// service children come from the response's timing block, centred in it,
/// so the round trip's self time is the transport.
void record_spans(const Phase& phase, Tracer& tracer) {
  for (const Sample& s : phase.samples) {
    const std::int64_t root = tracer.add(
        std::string("request.") + kKindNames[s.kind], -1, s.due, s.recv, s.key);
    tracer.add("loadgen.wait", root, s.due, s.send, s.key);
    const std::int64_t trip =
        tracer.add("client.round_trip", root, s.send, s.recv, s.key);
    const double inside = (s.queue_ms + s.service_ms) * 1e-3;
    const double q0 = s.send + std::max(0.0, (s.recv - s.send - inside) / 2.0);
    tracer.add("serve.queue", trip, q0, q0 + s.queue_ms * 1e-3, s.key);
    tracer.add("serve.service", trip, q0 + s.queue_ms * 1e-3, q0 + inside, s.key);
  }
}

/// Backend counters summed across backends, plus the router's own.
std::string counters_of(Fleet& fleet) {
  std::map<std::string, std::uint64_t> sums;
  for (const auto& m : fleet.backend_metrics) {
    for (const auto& [name, value] : m->snapshot().counters) sums[name] += value;
  }
  for (const auto& [name, value] : fleet.router_metrics.snapshot().counters) {
    sums[name] += value;
  }
  JsonObject o;
  for (const auto& [name, value] : sums) o.field(name, value);
  return o.str();
}

/// Backend timers (seconds) summed across backends.
std::string timers_of(Fleet& fleet) {
  std::map<std::string, double> sums;
  for (const auto& m : fleet.backend_metrics) {
    for (const auto& [name, stat] : m->snapshot().timers) sums[name] += stat.seconds;
  }
  JsonObject o;
  for (const auto& [name, seconds] : sums) o.field(name, seconds);
  return o.str();
}

}  // namespace

std::string run_serve_fleet(const Options& options) {
  const std::size_t connections = options.threads;
  Tracer tracer(options.trace);
  std::vector<std::string> setups;
  std::unique_ptr<Fleet> fleet;
  Primed primed;
  for (const double until = now_s() + kWarmUpSeconds; now_s() < until;) {
    double boot_s = 0.0;
    double prime_s = 0.0;
    fleet.reset();
    fleet = set_up(options.seed, primed, boot_s, prime_s);
  }
  for (std::size_t i = 0; i < options.setups; ++i) {
    fleet.reset();
    double boot_s = 0.0;
    double prime_s = 0.0;
    const double t = now_s();
    fleet = set_up(options.seed, primed, boot_s, prime_s);
    tracer.add("setup", -1, t, now_s());
    JsonObject o;
    o.field("total_s", boot_s + prime_s);
    o.field("boot_s", boot_s);
    o.field("prime_s", prime_s);
    setups.push_back(o.str());
  }
  const std::uint16_t port = fleet->router->port();
  const auto batch =
      static_cast<std::size_t>(std::llround(kPhaseBPerSecond * options.seconds));

  JsonObject o;
  o.field("workload", options.workload);
  o.field("seed", options.seed);
  o.field("connections", static_cast<std::uint64_t>(connections));
  o.field("rate_per_s", kRatePerSecond);
  o.field("deadline_ms", kDeadlineMs);
  o.raw("setups", json_array(setups));

  const double cpu0 = cpu_s();
  const Phase b =
      closed_loop(port, options.seed, 1, batch, connections, primed, false);
  o.raw("phase_b", phase_json(b));
  std::optional<Phase> a;
  if (options.trace) {
    a = open_loop(port, options.seed, kPhaseARequests, connections, primed,
                  true);
    const Phase alternating =
        closed_loop(port, options.seed, 2, batch, connections, primed, true);
    record_spans(*a, tracer);
    o.raw("phase_a", phase_json(*a));
    o.raw("alternating_piece_s", json_numbers(alternating.piece_s));
    o.raw("hop", hop_pairs(*fleet, options.seed, primed));
    o.raw("protocol", protocol_timings(a->texts, tracer));
  }
  o.field("cpu_s", cpu_s() - cpu0);
  o.raw("counters", counters_of(*fleet));
  o.raw("timers", timers_of(*fleet));
  std::vector<double> backend_requests;
  for (std::size_t k = 0; k < kBackends; ++k) {
    backend_requests.push_back(static_cast<double>(fleet->backend_requests(k)));
  }
  o.raw("backend_requests", json_numbers(backend_requests));
  fleet.reset();  // drain and join before the untimed checks

  o.raw("cold_sample", cold_sample(b, options.seed));
  if (options.trace) {
    o.raw("deadline", deadline_references(*a, options.seed));
    o.raw("layers", layer_timings(options.seed, tracer));
    o.raw("spans", tracer.json());
  }
  o.field("peak_rss_mib", peak_rss_mib());
  return o.str();
}

}  // namespace perfbench
