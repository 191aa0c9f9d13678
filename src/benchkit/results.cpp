#include "benchkit/results.hpp"

#include <unistd.h>

#include <algorithm>
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
  BenchResults results;
  results.schema_version =
      static_cast<int>(doc.number_or("schema_version", 0));
  if (results.schema_version != 1) {
    throw std::runtime_error("results: unsupported schema_version " +
                             std::to_string(results.schema_version));
  }
  results.git_sha = doc.string_or("git_sha", "unknown");
  if (const util::JsonValue* machine = doc.get("machine")) {
    results.machine.host = machine->string_or("host", "");
    results.machine.hardware_threads =
        static_cast<unsigned>(machine->number_or("hardware_threads", 0));
  }
  if (const util::JsonValue* config = doc.get("config")) {
    results.config.scale = config->number_or("scale", 1.0);
    results.config.seed =
        static_cast<std::uint64_t>(config->number_or("seed", 0));
    results.config.threads =
        static_cast<std::size_t>(config->number_or("threads", 0));
    results.config.warmup =
        static_cast<std::size_t>(config->number_or("warmup", 0));
    results.config.repetitions =
        static_cast<std::size_t>(config->number_or("repetitions", 1));
  }
  const util::JsonValue* scenarios = doc.get("scenarios");
  if (scenarios == nullptr || !scenarios->is_object()) {
    throw std::runtime_error("results: missing scenarios table");
  }
  for (const auto& [name, entry] : scenarios->object) {
    ScenarioResult s;
    s.name = name;
    s.exit_code = static_cast<int>(entry.number_or("exit_code", 0));
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
