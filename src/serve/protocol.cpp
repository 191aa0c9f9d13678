#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "data/types.hpp"
#include "telemetry/json.hpp"
#include "tenant/archive_store.hpp"

namespace eus::serve {

namespace {

using util::JsonValue;

[[noreturn]] void fail(const std::string& reason) {
  throw ProtocolError(reason);
}

double require_positive(double v, const char* what) {
  if (!(v > 0.0) || !std::isfinite(v)) {
    fail(std::string(what) + " must be a positive finite number");
  }
  return v;
}

std::size_t size_field(const JsonValue& obj, std::string_view key,
                       std::size_t fallback) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) return fallback;
  const auto n = v->as_uint();
  if (!n) fail(std::string(key) + " must be a non-negative integer");
  return *n;
}

std::vector<std::vector<double>> matrix_field(const JsonValue& obj,
                                              std::string_view key) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr || !v->is_array()) {
    fail(std::string(key) + " must be an array of rows");
  }
  std::vector<std::vector<double>> rows;
  rows.reserve(v->array.size());
  for (const JsonValue& row : v->array) {
    if (!row.is_array()) fail(std::string(key) + " rows must be arrays");
    std::vector<double> out;
    out.reserve(row.array.size());
    for (const JsonValue& cell : row.array) {
      if (cell.kind == JsonValue::Kind::kNull) {
        out.push_back(kIneligible);  // null == task cannot run there
      } else if (cell.is_number()) {
        out.push_back(require_positive(cell.number,
                                       (std::string(key) + " entry").c_str()));
      } else {
        fail(std::string(key) + " entries must be numbers or null");
      }
    }
    if (!rows.empty() && out.size() != rows.front().size()) {
      fail(std::string(key) + " rows must have equal width");
    }
    rows.push_back(std::move(out));
  }
  if (rows.empty() || rows.front().empty()) {
    fail(std::string(key) + " must be non-empty");
  }
  return rows;
}

ScenarioSpec parse_scenario(const JsonValue& doc, std::string_view key) {
  const JsonValue* s = doc.get(key);
  if (s == nullptr || !s->is_object()) {
    fail("request needs a \"" + std::string(key) + "\" scenario object");
  }
  ScenarioSpec spec;
  spec.name = s->string_or("name", "");
  if (const JsonValue* seed = s->get("seed"); seed != nullptr) {
    const auto n = seed->as_uint();
    if (!n) fail("scenario.seed must be a non-negative integer");
    spec.seed = *n;
    spec.seed_set = true;
  }
  if (spec.name == "dataset1" || spec.name == "dataset2" ||
      spec.name == "dataset3") {
    return spec;
  }
  if (spec.name == "custom") {
    spec.tasks = size_field(*s, "tasks", spec.tasks);
    spec.window_s = require_positive(s->number_or("window_s", spec.window_s),
                                     "scenario.window_s");
    if (spec.tasks == 0) fail("scenario.tasks must be >= 1");
    return spec;
  }
  if (spec.name.empty() || spec.name == "inline") {
    // Inline system: ETC/EPC matrices are mandatory.
    spec.name = "inline";
    spec.etc = matrix_field(*s, "etc");
    spec.epc = matrix_field(*s, "epc");
    if (spec.epc.size() != spec.etc.size() ||
        spec.epc.front().size() != spec.etc.front().size()) {
      fail("scenario.epc shape must match scenario.etc");
    }
    if (const JsonValue* counts = s->get("machine_counts");
        counts != nullptr) {
      if (!counts->is_array()) fail("scenario.machine_counts must be an array");
      if (counts->array.size() != spec.etc.front().size()) {
        fail("scenario.machine_counts must have one entry per machine type");
      }
      for (const JsonValue& c : counts->array) {
        const auto n = c.as_uint();
        if (!n || *n < 1) {
          fail("scenario.machine_counts entries must be integers >= 1");
        }
        spec.machine_counts.push_back(*n);
      }
    }
    spec.tasks = size_field(*s, "tasks", spec.tasks);
    spec.window_s = require_positive(s->number_or("window_s", spec.window_s),
                                     "scenario.window_s");
    if (spec.tasks == 0) fail("scenario.tasks must be >= 1");
    return spec;
  }
  // Any other non-empty name is a catalog alias: resolution against the
  // server's loaded ScenarioCatalog happens later (resolve_scenario), so
  // parsing stays catalog-independent.  Only the name and an optional seed
  // override travel with an alias.
  return spec;
}

AdminRequest parse_admin(const JsonValue& doc) {
  AdminRequest admin;
  const std::string action = doc.string_or("action", "get-config");
  if (action == "get-config") {
    admin.action = AdminAction::kGetConfig;
    return admin;
  }
  if (action == "set-queue-depth" || action == "set-cache-entries" ||
      action == "set-workers") {
    admin.action = action == "set-queue-depth" ? AdminAction::kSetQueueDepth
                   : action == "set-cache-entries"
                       ? AdminAction::kSetCacheEntries
                       : AdminAction::kSetWorkers;
    const JsonValue* v = doc.get("value");
    const auto n = v != nullptr ? v->as_uint() : std::nullopt;
    if (!n || *n < 1) {
      fail("admin." + action + " needs an integer \"value\" >= 1");
    }
    if (admin.action == AdminAction::kSetWorkers && *n > kMaxWorkers) {
      fail("admin.set-workers \"value\" must be in 1.." +
           std::to_string(kMaxWorkers));
    }
    admin.value = *n;
    return admin;
  }
  if (action == "catalog-reload") {
    admin.action = AdminAction::kCatalogReload;
    const JsonValue* c = doc.get("catalog");
    if (c == nullptr || !c->is_object()) {
      fail("admin.catalog-reload needs a \"catalog\" object");
    }
    const JsonValue* scenarios = c->get("scenarios");
    if (scenarios == nullptr || !scenarios->is_array()) {
      fail("catalog.scenarios must be an array");
    }
    for (const JsonValue& entry : scenarios->array) {
      if (!entry.is_object()) fail("catalog.scenarios entries must be objects");
      ScenarioRecipe recipe;
      recipe.name = entry.string_or("name", "");
      recipe.base = entry.string_or("base", "");
      if (recipe.name.empty()) fail("catalog entry needs a \"name\"");
      if (recipe.base.empty()) fail("catalog entry needs a \"base\"");
      if (const JsonValue* seed = entry.get("seed"); seed != nullptr) {
        const auto n = seed->as_uint();
        if (!n) fail("catalog entry seed must be a non-negative integer");
        recipe.seed = *n;
      }
      recipe.tasks = size_field(entry, "tasks", recipe.tasks);
      recipe.window_s = require_positive(
          entry.number_or("window_s", recipe.window_s),
          "catalog entry window_s");
      admin.catalog.push_back(std::move(recipe));
    }
    return admin;
  }
  if (action == "enable-backend" || action == "disable-backend") {
    admin.action = action == "enable-backend" ? AdminAction::kEnableBackend
                                              : AdminAction::kDisableBackend;
    admin.name = doc.string_or("name", "");
    if (admin.name.empty()) {
      fail("admin." + action + " needs a backend \"name\"");
    }
    return admin;
  }
  if (action == "fleet-reload") {
    admin.action = AdminAction::kFleetReload;
    const JsonValue* f = doc.get("fleet");
    if (f == nullptr || !f->is_object()) {
      fail("admin.fleet-reload needs a \"fleet\" object");
    }
    admin.fleet = *f;  // validated by the router's fleet-config parser
    return admin;
  }
  if (action == "archive-stats") {
    admin.action = AdminAction::kArchiveStats;
    return admin;
  }
  if (action == "archive-flush") {
    admin.action = AdminAction::kArchiveFlush;
    admin.name = doc.string_or("name", "");
    if (!admin.name.empty() && !tenant::valid_tenant_id(admin.name)) {
      fail("admin.archive-flush tenant name must match [A-Za-z0-9._-]{1,64}");
    }
    return admin;
  }
  if (action == "archive-cap") {
    admin.action = AdminAction::kArchiveCap;
    admin.name = doc.string_or("name", "");
    if (!tenant::valid_tenant_id(admin.name)) {
      fail("admin.archive-cap needs a tenant \"name\" matching "
           "[A-Za-z0-9._-]{1,64}");
    }
    const JsonValue* v = doc.get("value");
    const auto n = v != nullptr ? v->as_uint() : std::nullopt;
    if (!n || *n < 1) {
      fail("admin.archive-cap needs an integer \"value\" >= 1");
    }
    admin.value = *n;
    return admin;
  }
  fail("unknown admin action '" + action +
       "' (want get-config|set-queue-depth|set-cache-entries|set-workers|"
       "catalog-reload|enable-backend|disable-backend|fleet-reload|"
       "archive-stats|archive-flush|archive-cap)");
}

Nsga2Params parse_nsga2(const JsonValue& doc) {
  Nsga2Params params;
  const JsonValue* n = doc.get("nsga2");
  if (n == nullptr) return params;
  if (!n->is_object()) fail("\"nsga2\" must be an object");
  params.population = size_field(*n, "population", params.population);
  params.generations = size_field(*n, "generations", params.generations);
  params.mutation_probability =
      n->number_or("mutation_probability", params.mutation_probability);
  if (params.population < 2 || params.population % 2 != 0) {
    fail("nsga2.population must be even and >= 2");
  }
  if (params.generations == 0) fail("nsga2.generations must be >= 1");
  if (params.mutation_probability < 0.0 ||
      params.mutation_probability > 1.0) {
    fail("nsga2.mutation_probability must be in [0, 1]");
  }
  if (const JsonValue* seeds = n->get("seeds"); seeds != nullptr) {
    if (!seeds->is_array()) fail("nsga2.seeds must be an array of names");
    for (const JsonValue& s : seeds->array) {
      if (!s.is_string()) fail("nsga2.seeds entries must be strings");
      const auto h = heuristic_from_slug(s.string);
      if (!h) fail("unknown seed heuristic '" + s.string + "'");
      params.seeds.push_back(*h);
    }
  }
  return params;
}

std::string parse_tenant(const JsonValue& doc, bool required) {
  const JsonValue* t = doc.get("tenant");
  if (t == nullptr) {
    if (required) fail("delta request needs a \"tenant\" id");
    return {};
  }
  if (!t->is_string() || !tenant::valid_tenant_id(t->string)) {
    fail("tenant must be a string matching [A-Za-z0-9._-]{1,64}");
  }
  return t->string;
}

std::vector<ScenarioMutation> parse_mutations(const JsonValue& doc) {
  const JsonValue* m = doc.get("mutations");
  if (m == nullptr || !m->is_array()) {
    fail("delta request needs a \"mutations\" array");
  }
  if (m->array.empty()) {
    fail("delta.mutations must not be empty (an unchanged scenario is an "
         "allocate request)");
  }
  std::vector<ScenarioMutation> mutations;
  mutations.reserve(m->array.size());
  for (const JsonValue& entry : m->array) {
    if (!entry.is_object()) fail("delta.mutations entries must be objects");
    const std::string op = entry.string_or("op", "");
    ScenarioMutation mut;
    if (op == "add-tasks" || op == "remove-tasks") {
      mut.op = op == "add-tasks" ? ScenarioMutation::Op::kAddTasks
                                 : ScenarioMutation::Op::kRemoveTasks;
      mut.count = size_field(entry, "count", 0);
      if (mut.count == 0) fail("mutation " + op + " needs a \"count\" >= 1");
    } else if (op == "set-window") {
      mut.op = ScenarioMutation::Op::kSetWindow;
      const JsonValue* w = entry.get("window_s");
      if (w == nullptr || !w->is_number()) {
        fail("mutation set-window needs a \"window_s\" number");
      }
      mut.window_s = require_positive(w->number, "mutation window_s");
    } else if (op == "drop-machine") {
      mut.op = ScenarioMutation::Op::kDropMachine;
      const JsonValue* v = entry.get("machine");
      const auto n = v != nullptr ? v->as_uint() : std::nullopt;
      if (!n) {
        fail("mutation drop-machine needs a non-negative integer "
             "\"machine\" instance index");
      }
      mut.machine = *n;
    } else {
      fail("unknown mutation op '" + op +
           "' (want add-tasks|remove-tasks|set-window|drop-machine)");
    }
    mutations.push_back(mut);
  }
  return mutations;
}

ParetoQuery parse_query(const JsonValue& doc) {
  ParetoQuery query;
  const JsonValue* q = doc.get("query");
  if (q == nullptr) return query;
  if (!q->is_object()) fail("\"query\" must be an object");
  if (const JsonValue* v = q->get("max_energy"); v != nullptr) {
    if (!v->is_number()) fail("query.max_energy must be a number");
    query.max_energy = require_positive(v->number, "query.max_energy");
  }
  if (const JsonValue* v = q->get("min_utility"); v != nullptr) {
    if (!v->is_number()) fail("query.min_utility must be a number");
    query.min_utility = v->number;
  }
  return query;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw ProtocolError("frame payload exceeds 32-bit length prefix");
  }
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>((n >> 24U) & 0xFFU));
  frame.push_back(static_cast<char>((n >> 16U) & 0xFFU));
  frame.push_back(static_cast<char>((n >> 8U) & 0xFFU));
  frame.push_back(static_cast<char>(n & 0xFFU));
  frame.append(payload);
  return frame;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
  // Validate the pending length prefix eagerly so a hostile prefix fails
  // before any payload accumulates.
  if (buffer_.size() >= 4) {
    const auto b = [&](std::size_t i) {
      return static_cast<std::uint32_t>(
          static_cast<unsigned char>(buffer_[i]));
    };
    const std::uint32_t n =
        (b(0) << 24U) | (b(1) << 16U) | (b(2) << 8U) | b(3);
    if (n > max_frame_bytes_) {
      throw ProtocolError("frame of " + std::to_string(n) +
                          " bytes exceeds the " +
                          std::to_string(max_frame_bytes_) + "-byte limit");
    }
  }
}

std::optional<std::string> FrameDecoder::next() {
  if (buffer_.size() < 4) return std::nullopt;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[i]));
  };
  const std::uint32_t n = (b(0) << 24U) | (b(1) << 16U) | (b(2) << 8U) | b(3);
  if (buffer_.size() < 4 + static_cast<std::size_t>(n)) return std::nullopt;
  std::string payload = buffer_.substr(4, n);
  buffer_.erase(0, 4 + static_cast<std::size_t>(n));
  // The erase may expose the next frame's prefix; re-validate it.
  feed("", 0);
  return payload;
}

const char* to_string(RequestKind k) noexcept {
  switch (k) {
    case RequestKind::kAllocate:
      return "allocate";
    case RequestKind::kDelta:
      return "delta";
    case RequestKind::kHealthz:
      return "healthz";
    case RequestKind::kMetricsz:
      return "metricsz";
    case RequestKind::kAdminz:
      return "adminz";
  }
  return "?";
}

const char* to_string(AdminAction a) noexcept {
  switch (a) {
    case AdminAction::kGetConfig:
      return "get-config";
    case AdminAction::kSetQueueDepth:
      return "set-queue-depth";
    case AdminAction::kSetCacheEntries:
      return "set-cache-entries";
    case AdminAction::kSetWorkers:
      return "set-workers";
    case AdminAction::kCatalogReload:
      return "catalog-reload";
    case AdminAction::kEnableBackend:
      return "enable-backend";
    case AdminAction::kDisableBackend:
      return "disable-backend";
    case AdminAction::kFleetReload:
      return "fleet-reload";
    case AdminAction::kArchiveStats:
      return "archive-stats";
    case AdminAction::kArchiveFlush:
      return "archive-flush";
    case AdminAction::kArchiveCap:
      return "archive-cap";
  }
  return "?";
}

const char* to_string(ModeKind m) noexcept {
  switch (m) {
    case ModeKind::kHeuristic:
      return "heuristic";
    case ModeKind::kNsga2:
      return "nsga2";
    case ModeKind::kParetoQuery:
      return "pareto-query";
  }
  return "?";
}

const char* heuristic_slug(SeedHeuristic h) noexcept {
  switch (h) {
    case SeedHeuristic::kMinEnergy:
      return "min-energy";
    case SeedHeuristic::kMaxUtility:
      return "max-utility";
    case SeedHeuristic::kMaxUtilityPerEnergy:
      return "max-utility-per-energy";
    case SeedHeuristic::kMinMinCompletionTime:
      return "min-min";
  }
  return "?";
}

std::optional<SeedHeuristic> heuristic_from_slug(
    std::string_view slug) noexcept {
  for (const SeedHeuristic h : all_seed_heuristics()) {
    if (slug == heuristic_slug(h)) return h;
  }
  return std::nullopt;
}

ServeRequest parse_request(const util::JsonValue& doc) {
  if (!doc.is_object()) fail("request must be a JSON object");
  ServeRequest request;
  request.id = doc.string_or("id", "");

  const std::string type = doc.string_or("type", "allocate");
  if (type == "healthz") {
    request.kind = RequestKind::kHealthz;
    return request;
  }
  if (type == "metricsz") {
    request.kind = RequestKind::kMetricsz;
    return request;
  }
  if (type == "adminz") {
    request.kind = RequestKind::kAdminz;
    request.admin = parse_admin(doc);
    return request;
  }
  if (type == "delta") {
    request.kind = RequestKind::kDelta;
    // A delta is an nsga2-budget request for routing/capability purposes:
    // repairing and polishing a front runs the same machinery.
    request.mode = ModeKind::kNsga2;
    request.tenant = parse_tenant(doc, /*required=*/true);
    request.delta.base = parse_scenario(doc, "base");
    if (request.delta.base.name == "inline") {
      fail("delta.base cannot be an inline scenario (inline systems are "
           "not archivable; name the scenario instead)");
    }
    request.delta.mutations = parse_mutations(doc);
    request.delta.polish_generations =
        size_field(doc, "polish_generations", 0);
    if (const JsonValue* cf = doc.get("cold_fallback"); cf != nullptr) {
      if (cf->kind != JsonValue::Kind::kBool) {
        fail("cold_fallback must be a boolean");
      }
      request.delta.cold_fallback = cf->boolean;
    }
    request.nsga2 = parse_nsga2(doc);
    if (const JsonValue* d = doc.get("deadline_ms"); d != nullptr) {
      if (!d->is_number() || d->number < 0.0) {
        fail("deadline_ms must be a non-negative number");
      }
      request.deadline_ms = d->number;
    }
    return request;
  }
  if (type != "allocate") {
    fail("unknown request type '" + type +
         "' (want allocate|delta|healthz|metricsz|adminz)");
  }
  request.kind = RequestKind::kAllocate;
  request.tenant = parse_tenant(doc, /*required=*/false);

  const std::string mode = doc.string_or("mode", "");
  constexpr std::string_view kHeuristicPrefix = "heuristic:";
  if (mode.rfind(kHeuristicPrefix, 0) == 0) {
    request.mode = ModeKind::kHeuristic;
    const std::string slug = mode.substr(kHeuristicPrefix.size());
    const auto h = heuristic_from_slug(slug);
    if (!h) {
      std::string known;
      for (const SeedHeuristic k : all_seed_heuristics()) {
        if (!known.empty()) known += '|';
        known += heuristic_slug(k);
      }
      fail("unknown heuristic '" + slug + "' (want " + known + ")");
    }
    request.heuristic = *h;
  } else if (mode == "nsga2") {
    request.mode = ModeKind::kNsga2;
  } else if (mode == "pareto-query") {
    request.mode = ModeKind::kParetoQuery;
  } else {
    fail("unknown mode '" + mode +
         "' (want heuristic:<name>|nsga2|pareto-query)");
  }

  request.scenario = parse_scenario(doc, "scenario");
  request.nsga2 = parse_nsga2(doc);
  request.query = parse_query(doc);

  if (const JsonValue* d = doc.get("deadline_ms"); d != nullptr) {
    if (!d->is_number() || d->number < 0.0) {
      fail("deadline_ms must be a non-negative number");
    }
    request.deadline_ms = d->number;
  }
  return request;
}

ServeRequest parse_request_text(std::string_view json) {
  try {
    return parse_request(util::parse_json(json));
  } catch (const util::JsonParseError& e) {
    fail(std::string("malformed JSON: ") + e.what());
  }
}

int response_code(const JsonValue& doc, int fallback) {
  const JsonValue* code = doc.get("code");
  const auto n = code != nullptr ? code->as_uint() : std::nullopt;
  return n && *n <= 999 ? static_cast<int>(*n) : fallback;
}

ScenarioSpec resolve_scenario(const ScenarioSpec& spec,
                              const ScenarioCatalog* catalog) {
  if (ScenarioCatalog::is_builtin_name(spec.name)) return spec;
  const ScenarioRecipe* recipe =
      catalog == nullptr ? nullptr : catalog->find(spec.name);
  if (recipe == nullptr) {
    fail("unknown scenario name '" + spec.name +
         "' (want dataset1|dataset2|dataset3|custom|inline or a catalog "
         "alias)");
  }
  // The resolved spec is exactly what a direct request for the recipe's
  // base would carry, so aliases share cache entries with direct requests
  // and cached fronts stay valid across catalog reloads.
  ScenarioSpec resolved;
  resolved.name = recipe->base;
  resolved.seed = spec.seed_set ? spec.seed : recipe->seed;
  resolved.seed_set = true;
  resolved.tasks = recipe->tasks;
  resolved.window_s = recipe->window_s;
  return resolved;
}

ScenarioSpec apply_mutations(const ScenarioSpec& base,
                             const std::vector<ScenarioMutation>& mutations) {
  ScenarioSpec spec = base;
  for (const ScenarioMutation& m : mutations) {
    switch (m.op) {
      case ScenarioMutation::Op::kAddTasks:
        if (spec.name != "custom") {
          fail("mutation add-tasks applies only to custom scenarios (the "
               "datasets' traces are fixed)");
        }
        spec.tasks += m.count;
        break;
      case ScenarioMutation::Op::kRemoveTasks:
        if (spec.name != "custom") {
          fail("mutation remove-tasks applies only to custom scenarios (the "
               "datasets' traces are fixed)");
        }
        if (m.count >= spec.tasks) {
          fail("mutation remove-tasks would leave the trace empty");
        }
        spec.tasks -= m.count;
        break;
      case ScenarioMutation::Op::kSetWindow:
        if (spec.name != "custom") {
          fail("mutation set-window applies only to custom scenarios (the "
               "datasets' windows are fixed)");
        }
        spec.window_s = m.window_s;
        break;
      case ScenarioMutation::Op::kDropMachine:
        for (const std::size_t d : spec.dropped_machines) {
          if (d == m.machine) {
            fail("mutation drop-machine lists machine " +
                 std::to_string(m.machine) + " twice");
          }
        }
        spec.dropped_machines.push_back(m.machine);
        break;
    }
  }
  std::sort(spec.dropped_machines.begin(), spec.dropped_machines.end());
  return spec;
}

namespace {

/// The "nsga2" budget object shared by allocate and delta rendering.
JsonObject render_nsga2_object(const Nsga2Params& n) {
  JsonObject nsga2;
  nsga2.field("population", static_cast<std::uint64_t>(n.population));
  nsga2.field("generations", static_cast<std::uint64_t>(n.generations));
  nsga2.field("mutation_probability", n.mutation_probability);
  std::string seeds = "[";
  for (const SeedHeuristic h : n.seeds) {
    if (seeds.size() > 1) seeds += ',';
    seeds += '"';
    seeds += heuristic_slug(h);
    seeds += '"';
  }
  seeds += ']';
  nsga2.raw("seeds", seeds);
  return nsga2;
}

JsonObject render_scenario_object(const ScenarioSpec& spec) {
  JsonObject scenario;
  scenario.field("name", spec.name);
  if (spec.seed_set) {
    scenario.field("seed", static_cast<std::uint64_t>(spec.seed));
  }
  if (spec.name == "custom") {
    scenario.field("tasks", static_cast<std::uint64_t>(spec.tasks));
    scenario.field("window_s", spec.window_s);
  }
  return scenario;
}

}  // namespace

std::string render_allocate_request(const ServeRequest& request) {
  if (request.kind != RequestKind::kAllocate) {
    fail("render_allocate_request wants an allocate request");
  }
  if (request.scenario.name == "inline") {
    fail("render_allocate_request does not support inline scenarios");
  }
  JsonObject o;
  o.field("type", "allocate");
  if (!request.id.empty()) o.field("id", request.id);
  if (!request.tenant.empty()) o.field("tenant", request.tenant);
  std::string mode{to_string(request.mode)};
  if (request.mode == ModeKind::kHeuristic) {
    mode += std::string(":") + heuristic_slug(request.heuristic);
  }
  o.field("mode", mode);
  o.raw("scenario", render_scenario_object(request.scenario).str());
  if (request.mode != ModeKind::kHeuristic) {
    o.raw("nsga2", render_nsga2_object(request.nsga2).str());
  }
  if (request.mode == ModeKind::kParetoQuery) {
    JsonObject query;
    if (request.query.max_energy) {
      query.field("max_energy", *request.query.max_energy);
    }
    if (request.query.min_utility) {
      query.field("min_utility", *request.query.min_utility);
    }
    o.raw("query", query.str());
  }
  if (request.deadline_ms > 0.0) o.field("deadline_ms", request.deadline_ms);
  return o.str();
}

std::string render_delta_request(const ServeRequest& request) {
  if (request.kind != RequestKind::kDelta) {
    fail("render_delta_request wants a delta request");
  }
  JsonObject o;
  o.field("type", "delta");
  if (!request.id.empty()) o.field("id", request.id);
  o.field("tenant", request.tenant);
  o.raw("base", render_scenario_object(request.delta.base).str());
  std::string mutations = "[";
  for (const ScenarioMutation& m : request.delta.mutations) {
    JsonObject mut;
    switch (m.op) {
      case ScenarioMutation::Op::kAddTasks:
        mut.field("op", "add-tasks");
        mut.field("count", static_cast<std::uint64_t>(m.count));
        break;
      case ScenarioMutation::Op::kRemoveTasks:
        mut.field("op", "remove-tasks");
        mut.field("count", static_cast<std::uint64_t>(m.count));
        break;
      case ScenarioMutation::Op::kSetWindow:
        mut.field("op", "set-window");
        mut.field("window_s", m.window_s);
        break;
      case ScenarioMutation::Op::kDropMachine:
        mut.field("op", "drop-machine");
        mut.field("machine", static_cast<std::uint64_t>(m.machine));
        break;
    }
    if (mutations.size() > 1) mutations += ',';
    mutations += mut.str();
  }
  mutations += ']';
  o.raw("mutations", mutations);
  if (request.delta.polish_generations > 0) {
    o.field("polish_generations",
            static_cast<std::uint64_t>(request.delta.polish_generations));
  }
  if (!request.delta.cold_fallback) o.field("cold_fallback", false);
  o.raw("nsga2", render_nsga2_object(request.nsga2).str());
  if (request.deadline_ms > 0.0) o.field("deadline_ms", request.deadline_ms);
  return o.str();
}

std::string scenario_fingerprint(const ScenarioSpec& s) {
  std::ostringstream key;
  key.precision(17);
  key << "scenario=" << s.name << ";seed=" << s.seed;
  if (s.name == "custom" || s.name == "inline") {
    key << ";tasks=" << s.tasks << ";window=" << s.window_s;
  }
  if (s.name == "inline") {
    // FNV-1a over the matrix entries' bit patterns keeps the key short
    // while remaining a pure function of the inline system.
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFFU;
        h *= 1099511628211ULL;
      }
    };
    for (const auto* m : {&s.etc, &s.epc}) {
      mix(m->size());
      for (const auto& row : *m) {
        for (const double x : row) {
          std::uint64_t bits = 0;
          static_assert(sizeof(bits) == sizeof(x));
          std::memcpy(&bits, &x, sizeof(bits));
          mix(bits);
        }
      }
    }
    for (const std::size_t c : s.machine_counts) mix(c);
    key << ";system=" << std::hex << h << std::dec;
  }
  if (!s.dropped_machines.empty()) {
    key << ";drop=";
    for (std::size_t i = 0; i < s.dropped_machines.size(); ++i) {
      if (i > 0) key << ',';
      key << s.dropped_machines[i];
    }
  }
  return key.str();
}

std::string request_fingerprint(const ServeRequest& request) {
  std::ostringstream key;
  key.precision(17);
  if (request.kind == RequestKind::kDelta) {
    // Never a front-cache key (delta results depend on archive state);
    // identifies the request for routing and logs.
    key << "delta;base=" << scenario_fingerprint(request.delta.base)
        << ";mut=";
    for (const ScenarioMutation& m : request.delta.mutations) {
      switch (m.op) {
        case ScenarioMutation::Op::kAddTasks:
          key << "+t" << m.count;
          break;
        case ScenarioMutation::Op::kRemoveTasks:
          key << "-t" << m.count;
          break;
        case ScenarioMutation::Op::kSetWindow:
          key << "w" << m.window_s;
          break;
        case ScenarioMutation::Op::kDropMachine:
          key << "-m" << m.machine;
          break;
      }
      key << ',';
    }
  } else {
    key << scenario_fingerprint(request.scenario);
  }
  key << "|mode=";
  if (request.mode == ModeKind::kHeuristic) {
    key << "heuristic:" << heuristic_slug(request.heuristic);
  } else {
    // pareto-query shares the nsga2 fingerprint on purpose: it reads the
    // front an nsga2 request with the same budget would compute.
    const Nsga2Params& n = request.nsga2;
    key << "nsga2;pop=" << n.population << ";gen=" << n.generations
        << ";mut=" << n.mutation_probability << ";seeds=";
    for (const SeedHeuristic h : n.seeds) key << heuristic_slug(h) << ',';
  }
  if (!request.tenant.empty()) {
    // Tenant-keyed results may be warm-started (strictly better fronts);
    // they never share cache entries with the tenant-less fast path.
    key << ";tenant=" << request.tenant;
  }
  return key.str();
}

}  // namespace eus::serve
