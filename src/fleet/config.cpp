#include "fleet/config.hpp"

#include <cmath>
#include <set>

namespace eus::fleet {

namespace {

using util::JsonValue;

[[noreturn]] void fail(const std::string& reason) {
  throw FleetConfigError(reason);
}

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

constexpr std::string_view kModePrefix = "mode:";
constexpr std::string_view kScenarioPrefix = "scenario:";

bool known_mode(std::string_view mode) {
  return mode == "heuristic" || mode == "nsga2" || mode == "pareto-query";
}

void validate_capability(const std::string& tag, const std::string& backend) {
  if (tag == "*") return;
  if (tag.rfind(kModePrefix, 0) == 0) {
    const std::string_view mode =
        std::string_view(tag).substr(kModePrefix.size());
    if (!known_mode(mode)) {
      fail("backend '" + backend + "': unknown mode capability '" + tag +
           "' (want mode:heuristic|mode:nsga2|mode:pareto-query)");
    }
    return;
  }
  if (tag.rfind(kScenarioPrefix, 0) == 0) {
    if (tag.size() == kScenarioPrefix.size()) {
      fail("backend '" + backend + "': empty scenario capability");
    }
    return;
  }
  fail("backend '" + backend + "': unknown capability syntax '" + tag +
       "' (want \"*\", \"mode:<m>\" or \"scenario:<name>\")");
}

double positive_field(const JsonValue& obj, std::string_view key,
                      double fallback, const std::string& backend) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) return fallback;
  if (!v->is_number() || !(v->number > 0.0) || !std::isfinite(v->number)) {
    fail("backend '" + backend + "': " + std::string(key) +
         " must be a positive finite number");
  }
  return v->number;
}

BackendConfig parse_backend(const JsonValue& entry) {
  if (!entry.is_object()) fail("backends entries must be objects");
  BackendConfig backend;
  backend.name = entry.string_or("name", "");
  if (!valid_name(backend.name)) {
    fail("backend name '" + backend.name +
         "' is invalid (want 1-64 chars of [A-Za-z0-9_.-])");
  }
  backend.host = entry.string_or("host", backend.host);
  if (backend.host != "127.0.0.1" && backend.host != "localhost") {
    fail("backend '" + backend.name + "': host '" + backend.host +
         "' is not loopback (the fleet is single-host for now; want "
         "127.0.0.1 or localhost)");
  }
  const JsonValue* port = entry.get("port");
  const auto port_n = port != nullptr ? port->as_uint() : std::nullopt;
  if (!port_n || *port_n < 1 || *port_n > 65535) {
    fail("backend '" + backend.name + "': port must be an integer 1..65535");
  }
  backend.port = static_cast<std::uint16_t>(*port_n);
  if (const JsonValue* caps = entry.get("capabilities"); caps != nullptr) {
    if (!caps->is_array()) {
      fail("backend '" + backend.name + "': capabilities must be an array");
    }
    for (const JsonValue& tag : caps->array) {
      if (!tag.is_string()) {
        fail("backend '" + backend.name +
             "': capabilities entries must be strings");
      }
      validate_capability(tag.string, backend.name);
      backend.capabilities.push_back(tag.string);
    }
  }
  backend.speed_factor =
      positive_field(entry, "speed_factor", backend.speed_factor,
                     backend.name);
  backend.watts = positive_field(entry, "watts", backend.watts, backend.name);
  if (const JsonValue* m = entry.get("max_in_flight"); m != nullptr) {
    const auto n = m->as_uint();
    if (!n || *n < 1) {
      fail("backend '" + backend.name +
           "': max_in_flight must be an integer >= 1");
    }
    backend.max_in_flight = *n;
  }
  if (const JsonValue* e = entry.get("enabled"); e != nullptr) {
    if (e->kind != JsonValue::Kind::kBool) {
      fail("backend '" + backend.name + "': enabled must be a boolean");
    }
    backend.enabled = e->boolean;
  }
  return backend;
}

}  // namespace

FleetConfig parse_fleet_config(const util::JsonValue& doc) {
  if (!doc.is_object()) fail("fleet config must be a JSON object");
  const JsonValue* backends = doc.get("backends");
  if (backends == nullptr || !backends->is_array()) {
    fail("fleet config needs a \"backends\" array");
  }
  FleetConfig config;
  std::set<std::string> names;
  std::set<std::pair<std::string, std::uint16_t>> endpoints;
  for (const JsonValue& entry : backends->array) {
    BackendConfig backend = parse_backend(entry);
    if (!names.insert(backend.name).second) {
      fail("duplicate backend name '" + backend.name + "'");
    }
    if (!endpoints.insert({backend.host, backend.port}).second) {
      fail("backend '" + backend.name + "': duplicate endpoint " +
           backend.host + ":" + std::to_string(backend.port));
    }
    config.backends.push_back(std::move(backend));
  }
  if (config.backends.empty()) {
    fail("fleet config needs at least one backend");
  }
  return config;
}

FleetConfig parse_fleet_config_text(std::string_view json) {
  try {
    return parse_fleet_config(util::parse_json(json));
  } catch (const util::JsonParseError& e) {
    fail(std::string("malformed fleet JSON: ") + e.what());
  }
}

FleetConfig load_fleet_config(const std::string& path) {
  return parse_fleet_config(util::parse_json_file(path));
}

bool capabilities_allow(const std::vector<std::string>& capabilities,
                        std::string_view mode, std::string_view scenario) {
  bool mode_listed = false;
  bool mode_allowed = false;
  bool scenario_listed = false;
  bool scenario_allowed = false;
  for (const std::string& tag : capabilities) {
    if (tag == "*") return true;
    if (tag.rfind(kModePrefix, 0) == 0) {
      mode_listed = true;
      if (std::string_view(tag).substr(kModePrefix.size()) == mode) {
        mode_allowed = true;
      }
    } else if (tag.rfind(kScenarioPrefix, 0) == 0) {
      scenario_listed = true;
      if (std::string_view(tag).substr(kScenarioPrefix.size()) == scenario) {
        scenario_allowed = true;
      }
    }
  }
  return (!mode_listed || mode_allowed) &&
         (!scenario_listed || scenario_allowed);
}

}  // namespace eus::fleet
