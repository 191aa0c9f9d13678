#include "benchkit/results.hpp"

#include <unistd.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <thread>

#include "telemetry/json.hpp"
#include "util/env.hpp"
#include "util/json_value.hpp"

namespace eus::benchkit {

namespace {

constexpr std::string_view kCounterPrefix = "counter.";
constexpr std::string_view kTimerPrefix = "timer.";

std::string metric_map_json(const std::map<std::string, double>& values) {
  JsonObject obj;
  for (const auto& [name, value] : values) obj.field(name, value);
  return obj.str();
}

std::map<std::string, double> metric_map_from_json(const util::JsonValue* obj) {
  std::map<std::string, double> out;
  if (obj == nullptr || !obj->is_object()) return out;
  for (const auto& [name, value] : obj->object) {
    if (value.is_number()) out[name] = value.number;
  }
  return out;
}

/// Member `key` as an integer in 0..max, or `fallback` when absent.  A
/// present value that is not such an integer is refused, never cast.
std::uint64_t uint_field(const util::JsonValue& doc, std::string_view key,
                         std::uint64_t fallback, std::uint64_t max) {
  const util::JsonValue* v = doc.get(key);
  if (v == nullptr) return fallback;
  const std::optional<std::uint64_t> n = v->as_uint();
  if (n && *n <= max) return *n;
  const std::string what = "results: " + std::string(key);
  throw std::runtime_error(what + " must be an integer in 0.." +
                           std::to_string(max));
}

}  // namespace

std::optional<double> ScenarioResult::metric(const std::string& id) const {
  if (id == "wall_s") {
    if (wall_s.empty()) return std::nullopt;
    return wall().median;
  }
  if (id.rfind(kCounterPrefix, 0) == 0) {
    const auto it = counters.find(id.substr(kCounterPrefix.size()));
    if (it != counters.end()) return it->second;
    return std::nullopt;
  }
  if (id.rfind(kTimerPrefix, 0) == 0) {
    const auto it = timers_s.find(id.substr(kTimerPrefix.size()));
    if (it != timers_s.end()) return it->second;
    return std::nullopt;
  }
  return std::nullopt;
}

const ScenarioResult* BenchResults::find(const std::string& name) const {
  for (const ScenarioResult& s : scenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string to_json(const BenchResults& results) {
  JsonObject machine;
  machine.field("host", results.machine.host)
      .field("hardware_threads",
             static_cast<std::uint64_t>(results.machine.hardware_threads));

  JsonObject config;
  config.field("scale", results.config.scale)
      .field("seed", static_cast<std::uint64_t>(results.config.seed))
      .field("threads", static_cast<std::uint64_t>(results.config.threads))
      .field("warmup", static_cast<std::uint64_t>(results.config.warmup))
      .field("repetitions",
             static_cast<std::uint64_t>(results.config.repetitions));

  std::vector<const ScenarioResult*> sorted;
  sorted.reserve(results.scenarios.size());
  for (const ScenarioResult& s : results.scenarios) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const ScenarioResult* a, const ScenarioResult* b) {
              return a->name < b->name;
            });

  JsonObject scenarios;
  for (const ScenarioResult* s : sorted) {
    const Aggregate wall = s->wall();
    std::string samples = "[";
    for (std::size_t i = 0; i < s->wall_s.size(); ++i) {
      if (i > 0) samples += ',';
      samples += json_number(s->wall_s[i]);
    }
    samples += ']';

    JsonObject wall_obj;
    wall_obj.raw("samples", samples)
        .field("min", wall.min)
        .field("max", wall.max)
        .field("mean", wall.mean)
        .field("median", wall.median)
        .field("mad", wall.mad);

    JsonObject scenario;
    scenario.field("exit_code", static_cast<std::int64_t>(s->exit_code))
        .raw("wall_s", wall_obj.str())
        .raw("counters", metric_map_json(s->counters))
        .raw("timers_s", metric_map_json(s->timers_s));
    scenarios.raw(s->name, scenario.str());
  }

  JsonObject doc;
  doc.field("schema_version",
            static_cast<std::int64_t>(results.schema_version))
      .field("git_sha", results.git_sha)
      .raw("machine", machine.str())
      .raw("config", config.str())
      .raw("scenarios", scenarios.str());
  return doc.str();
}

BenchResults results_from_json(const util::JsonValue& doc) {
  if (!doc.is_object()) throw std::runtime_error("results: not an object");
  const util::JsonValue* version = doc.get("schema_version");
  if (version == nullptr || version->as_uint() != 1U) {
    throw std::runtime_error("results: unsupported schema_version");
  }
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
  BenchResults results;
  results.git_sha = doc.string_or("git_sha", "unknown");
  if (const util::JsonValue* machine = doc.get("machine")) {
    results.machine.host = machine->string_or("host", "");
    results.machine.hardware_threads = static_cast<unsigned>(
        uint_field(*machine, "hardware_threads", 0, kIntMax));
  }
  if (const util::JsonValue* config = doc.get("config")) {
    results.config.scale = config->number_or("scale", 1.0);
    results.config.seed = uint_field(*config, "seed", 0, kAny);
    results.config.threads = uint_field(*config, "threads", 0, kAny);
    results.config.warmup = uint_field(*config, "warmup", 0, kAny);
    results.config.repetitions = uint_field(*config, "repetitions", 1, kAny);
  }
  const util::JsonValue* scenarios = doc.get("scenarios");
  if (scenarios == nullptr || !scenarios->is_object()) {
    throw std::runtime_error("results: missing scenarios table");
  }
  for (const auto& [name, entry] : scenarios->object) {
    ScenarioResult s;
    s.name = name;
    s.exit_code = static_cast<int>(uint_field(entry, "exit_code", 0, kIntMax));
    if (const util::JsonValue* wall = entry.get("wall_s")) {
      if (const util::JsonValue* samples = wall->get("samples")) {
        for (const util::JsonValue& v : samples->array) {
          if (v.is_number()) s.wall_s.push_back(v.number);
        }
      }
    }
    s.counters = metric_map_from_json(entry.get("counters"));
    s.timers_s = metric_map_from_json(entry.get("timers_s"));
    results.scenarios.push_back(std::move(s));
  }
  return results;
}

MachineInfo local_machine() {
  MachineInfo info;
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0) info.host = host;
  info.hardware_threads = std::thread::hardware_concurrency();
  return info;
}

std::string discover_git_sha() {
  for (const char* name : {"GITHUB_SHA", "EUS_GIT_SHA"}) {
    if (const auto value = env_string(name)) return *value;
  }
  return "unknown";
}

}  // namespace eus::benchkit
