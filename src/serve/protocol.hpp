#pragma once

// The eus_served wire protocol: length-prefixed JSON frames over TCP.
//
// Frame layout: a 4-byte big-endian unsigned payload length, then exactly
// that many bytes of UTF-8 JSON.  Both directions use the same framing.
// Oversized frames are a protocol error — the decoder rejects them before
// buffering the payload, so a hostile length prefix cannot balloon memory.
//
// A request document carries a type ("allocate" | "delta" | "healthz" |
// "metricsz" | "adminz"), and for allocate: a scenario (named dataset,
// catalog alias, or inline ETC/EPC), a mode ("heuristic:<name>" | "nsga2" |
// "pareto-query"), optional NSGA-II budget parameters, an optional tenant
// id (enables the warm-start archive, docs/tenant.md) and an optional
// deadline.  "delta" mutates a tenant's previously optimized scenario
// (add/remove tasks, shrink the window, drop a machine) and re-polishes
// the archived front instead of restarting.  "adminz" is the live
// administration plane (docs/runtime.md): get-config, set-queue-depth,
// set-cache-entries, set-workers, catalog-reload, and the archive plane
// (archive-stats, archive-flush, archive-cap).  docs/serving.md documents
// the full schema with examples; parse_request enforces it and throws
// ProtocolError (with a human-readable reason) on any violation.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario_catalog.hpp"
#include "heuristics/seeds.hpp"
#include "util/json_value.hpp"

namespace eus::serve {

/// Default cap on a single frame's payload; a request larger than this is
/// rejected with a framing error (inline ETC/EPC matrices fit comfortably).
inline constexpr std::size_t kMaxFrameBytes = 4U << 20U;

/// Cap on request-executing workers (set-workers, --workers): each worker
/// is one OS thread running CPU-bound NSGA-II.
inline constexpr std::size_t kMaxWorkers = 256;

/// Malformed frame or request document.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Renders `payload` as one frame (4-byte big-endian length + payload).
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed() raw bytes as they arrive, next() pops
/// one complete payload when available.  A length prefix beyond
/// `max_frame_bytes` throws ProtocolError immediately.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const char* data, std::size_t size);
  [[nodiscard]] std::optional<std::string> next();

  /// Bytes buffered but not yet returned (tests; bounded by one frame).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size();
  }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
};

enum class RequestKind { kAllocate, kDelta, kHealthz, kMetricsz, kAdminz };

enum class ModeKind { kHeuristic, kNsga2, kParetoQuery };

/// Live-administration verbs (served inline like healthz — never queued).
/// The backend/fleet verbs are understood only by eus_router; eus_served
/// answers them with a 400 explaining there is no fleet to administer.
enum class AdminAction {
  kGetConfig,      ///< effective configuration + phase snapshot
  kSetQueueDepth,  ///< live bounded-queue capacity
  kSetCacheEntries,///< live LRU front-cache capacity
  kSetWorkers,     ///< live worker-pool resize (grow or shrink)
  kCatalogReload,  ///< atomically hot-swap the named-scenario catalog
  kEnableBackend,  ///< router: mark a named backend routable again
  kDisableBackend, ///< router: drain a named backend out of the rotation
  kFleetReload,    ///< router: atomically swap the fleet config
  kArchiveStats,   ///< per-tenant warm-start archive occupancy + hit rates
  kArchiveFlush,   ///< drop one tenant's archive entries (or all tenants')
  kArchiveCap,     ///< set a tenant's archive entry cap
};

[[nodiscard]] const char* to_string(RequestKind k) noexcept;
[[nodiscard]] const char* to_string(ModeKind m) noexcept;
[[nodiscard]] const char* to_string(AdminAction a) noexcept;

/// The payload of an "adminz" request.
struct AdminRequest {
  AdminAction action = AdminAction::kGetConfig;
  std::size_t value = 0;  ///< set-* / archive-cap's new value (>= 1)
  std::vector<ScenarioRecipe> catalog;  ///< catalog-reload's entry set
  /// enable-/disable-backend's target; archive-flush / archive-cap's tenant
  /// ("" for archive-flush = every tenant).
  std::string name;
  util::JsonValue fleet;  ///< fleet-reload's config document (kNull else)
};

/// Which ETC/EPC environment a request targets: one of the paper's named
/// datasets, a "custom"-sized trace over the historical system, a fully
/// inline system (ETC/EPC matrices + machine counts) with a generated
/// trace, or a catalog alias resolved server-side against the loaded
/// ScenarioCatalog (resolve_scenario).  Construction is deterministic
/// given the resolved spec, so a fingerprint of the spec identifies the
/// scenario for caching.
struct ScenarioSpec {
  std::string name;  ///< built-in name, "inline", or a catalog alias
  std::uint64_t seed = 20130520;
  bool seed_set = false;  ///< the request carried an explicit seed
  /// custom/inline trace shape.
  std::size_t tasks = 60;
  double window_s = 120.0;
  /// inline system: etc[task_type][machine_type] seconds (null entries in
  /// the JSON mean ineligible and arrive as +inf), epc watts, and machine
  /// instance counts per machine type (empty = one of each).
  std::vector<std::vector<double>> etc;
  std::vector<std::vector<double>> epc;
  std::vector<std::size_t> machine_counts;
  /// Machine *instances* removed from the built system (sorted, unique).
  /// Never parsed off the wire — only apply_mutations produces it — but it
  /// is part of the scenario identity and therefore of the fingerprint.
  std::vector<std::size_t> dropped_machines;
};

/// NSGA-II budget for mode "nsga2" (and "pareto-query" cache misses).
/// Defaults stay small so an unconfigured request answers interactively.
struct Nsga2Params {
  std::size_t population = 32;  ///< must be even and >= 2
  std::size_t generations = 32;
  double mutation_probability = 0.25;
  /// Greedy seeds injected into the initial population.
  std::vector<SeedHeuristic> seeds;
};

/// Constraints for mode "pareto-query": answered from the cached front.
struct ParetoQuery {
  std::optional<double> max_energy;   ///< joules budget (pick max utility)
  std::optional<double> min_utility;  ///< floor (pick min energy)
};

/// One scenario mutation inside a "delta" request, applied in list order.
struct ScenarioMutation {
  enum class Op {
    kAddTasks,     ///< grow a custom trace by `count` tasks
    kRemoveTasks,  ///< shrink a custom trace by `count` tasks
    kSetWindow,    ///< retune a custom trace's window to `window_s`
    kDropMachine,  ///< remove machine instance `machine` from the system
  };
  Op op = Op::kAddTasks;
  std::size_t count = 0;
  double window_s = 0.0;
  std::size_t machine = 0;
};

/// The payload of a "delta" request: mutate `base` (the tenant's previously
/// optimized scenario) and re-polish its archived front.
struct DeltaRequest {
  ScenarioSpec base;  ///< inline scenarios rejected (not archivable)
  std::vector<ScenarioMutation> mutations;  ///< must be non-empty
  /// Polish budget in generations; 0 = auto (nsga2.generations / 16, >= 1).
  std::size_t polish_generations = 0;
  /// On an archive miss: true runs the mutated scenario cold at the full
  /// nsga2 budget, false answers 404.
  bool cold_fallback = true;
};

struct ServeRequest {
  RequestKind kind = RequestKind::kAllocate;
  std::string id;  ///< optional client correlation id, echoed back
  /// Warm-start archive key ([A-Za-z0-9._-]{1,64}); optional for allocate
  /// (enables archiving + warm starts), required for delta.  Empty = the
  /// tenant-less fast path, bit-identical to offline StudyEngine runs.
  std::string tenant;
  ModeKind mode = ModeKind::kHeuristic;
  SeedHeuristic heuristic = SeedHeuristic::kMinEnergy;
  ScenarioSpec scenario;
  DeltaRequest delta;  ///< delta requests only
  Nsga2Params nsga2;
  ParetoQuery query;
  AdminRequest admin;        ///< adminz requests only
  double deadline_ms = 0.0;  ///< 0 = no deadline
};

/// Parses and validates one request document.  Throws ProtocolError with a
/// reason suitable for echoing back to the client.
[[nodiscard]] ServeRequest parse_request(const util::JsonValue& doc);
[[nodiscard]] ServeRequest parse_request_text(std::string_view json);

/// The status code a reply document carries: its "code" member when that
/// is an integer in 0..999, else `fallback` (an absent, fractional,
/// negative or huge code never reaches an int cast).
[[nodiscard]] int response_code(const util::JsonValue& doc, int fallback);

/// Resolves a catalog alias to its concrete built-in spec (built-in names
/// pass through unchanged; an explicit request seed overrides the
/// recipe's).  Throws ProtocolError when the name is neither built-in nor
/// in `catalog` (nullptr = no catalog loaded).  Must run before
/// request_fingerprint so cached entries survive catalog reloads.
[[nodiscard]] ScenarioSpec resolve_scenario(const ScenarioSpec& spec,
                                            const ScenarioCatalog* catalog);

/// Canonical identity of a *scenario* alone, independent of optimization
/// budget: the warm-start archive key.  A resolved allocate request's
/// scenario and the same scenario reached through a delta lineage
/// fingerprint equally.
[[nodiscard]] std::string scenario_fingerprint(const ScenarioSpec& spec);

/// Canonical cache key for an allocate request: scenario identity plus the
/// result-determining mode parameters (the deadline and query constraints
/// are excluded — they select *within* a computed result, they do not
/// change it).  Equal requests fingerprint equally.  A request with a
/// tenant id keys separately — warm-started fronts may strictly dominate
/// the tenant-less (StudyEngine-bit-identical) result, so they never share
/// cache entries.  Delta requests get a distinct "delta;..." key (their
/// results are archive-state-dependent and are never front-cached; the key
/// serves routing and logging).
[[nodiscard]] std::string request_fingerprint(const ServeRequest& request);

/// Applies a delta request's mutations to the *resolved* base spec,
/// returning the mutated scenario.  Trace-shape mutations (add-tasks,
/// remove-tasks, set-window) apply only to "custom" bases — the datasets'
/// traces are fixed by the paper; drop-machine applies to any base
/// (indices refer to the base system's machine instances; range checking
/// happens when the system is built).  Throws ProtocolError on an
/// inapplicable mutation, a duplicate drop, or a shape that mutates away
/// every task.
[[nodiscard]] ScenarioSpec apply_mutations(
    const ScenarioSpec& base, const std::vector<ScenarioMutation>& mutations);

/// Serializes an allocate request back into a protocol document that
/// parse_request accepts and that round-trips every result-determining
/// field.  The router uses it to forward alias requests with the scenario
/// already resolved (backends need no catalog); inline systems are not
/// supported (the router forwards those payloads verbatim — an alias can
/// never resolve to one).  Throws ProtocolError on a non-allocate or
/// inline-scenario request.
[[nodiscard]] std::string render_allocate_request(const ServeRequest& request);

/// render_allocate_request's sibling for delta requests: serializes the
/// (resolved-base) delta back into a document parse_request accepts.  The
/// router uses it to forward a delta whose base was a catalog alias.
[[nodiscard]] std::string render_delta_request(const ServeRequest& request);

/// Heuristic name <-> enum for the "heuristic:<name>" mode string.
[[nodiscard]] const char* heuristic_slug(SeedHeuristic h) noexcept;
[[nodiscard]] std::optional<SeedHeuristic> heuristic_from_slug(
    std::string_view slug) noexcept;

}  // namespace eus::serve
