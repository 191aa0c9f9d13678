// eus_client — CLI client and load generator for eus_served.
//
//   eus_client --healthz
//   eus_client --mode heuristic:min-energy --scenario dataset1
//   eus_client --mode nsga2 --generations 64 --deadline-ms 200
//   eus_client --mode pareto-query --max-energy 1500
//   eus_client --mode nsga2 --repeat 8 --concurrency 4   # load generator
//   eus_client --mode nsga2 --tenant acme                # warm-start archive
//
// Delta requests (docs/tenant.md): mutate a tenant's previously optimized
// scenario and re-polish the archived front instead of restarting.
// Mutations apply in command-line order:
//
//   eus_client delta --tenant acme --scenario custom --tasks 60
//       --add-tasks 10 --drop-machine 3
//
// Live administration (the daemon's adminz plane, docs/runtime.md):
//
//   eus_client admin get-config
//   eus_client admin set-queue-depth 16
//   eus_client admin set-workers 4
//   eus_client admin set-cache-entries 128
//   eus_client admin catalog-reload --catalog scenarios.json
//   eus_client admin archive-stats
//   eus_client admin archive-flush [tenant]
//   eus_client admin archive-cap <tenant> <n>
//
// Exit codes (mirrors eus_bench's small-integer convention):
//   0  success
//   1  server-sent error response (4xx/5xx payload)
//   2  usage error
//   3  connect failure (daemon unreachable / connection lost)
//   4  deadline exceeded (partial front, code 206)

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "telemetry/json.hpp"
#include "util/env.hpp"
#include "util/json_value.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace eus;
using namespace eus::serve;

constexpr int kExitOk = 0;
constexpr int kExitServerError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConnectFailure = 3;
constexpr int kExitDeadlineExceeded = 4;

/// One delta mutation as given on the command line (order preserved).
struct CliMutation {
  std::string op;  ///< add-tasks | remove-tasks | set-window | drop-machine
  std::size_t count = 0;
  double window_s = 0.0;
  std::size_t machine = 0;
};

struct CliOptions {
  std::uint16_t port = serve_port();
  bool healthz = false;
  bool metricsz = false;
  bool admin = false;
  bool delta = false;                       ///< "delta" subcommand
  std::string admin_action;                 ///< adminz verb
  std::optional<std::size_t> admin_value;   ///< set-* / archive-cap operand
  std::string admin_name;                   ///< backend / tenant target
  std::optional<std::string> catalog_path;  ///< catalog-reload JSON file
  std::optional<std::string> fleet_path;    ///< fleet-reload JSON file
  std::string tenant;                       ///< warm-start archive key
  std::vector<CliMutation> mutations;       ///< delta mutations, CLI order
  std::optional<std::size_t> polish_generations;
  bool cold_fallback = true;  ///< --no-cold-fallback: archive miss = 404
  bool raw_json = false;
  std::string mode = "heuristic:min-energy";
  std::string id;
  std::string scenario = "dataset1";
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> tasks;
  std::optional<double> window_s;
  std::optional<std::size_t> population;
  std::optional<std::size_t> generations;
  std::optional<double> mutation;
  std::optional<std::string> seeds;  ///< comma-separated slugs or "all"
  double deadline_ms = 0.0;
  std::optional<double> max_energy;
  std::optional<double> min_utility;
  std::size_t repeat = 1;       ///< requests per connection
  std::size_t concurrency = 1;  ///< parallel connections
};

void print_usage(std::ostream& out) {
  out << "usage: eus_client [options]\n"
         "       eus_client delta --tenant <id> [mutations] [options]\n"
         "       eus_client admin <verb> [value] [options]\n"
         "\n"
         "delta requests (docs/tenant.md) mutate the --scenario base a\n"
         "tenant previously optimized and re-polish its archived front;\n"
         "mutations apply in command-line order:\n"
         "  --add-tasks <n>      grow a custom trace by n tasks\n"
         "  --remove-tasks <n>   shrink a custom trace by n tasks\n"
         "  --set-window <x>     retune a custom trace's window seconds\n"
         "  --drop-machine <n>   remove machine instance n from the system\n"
         "  --polish-generations <n>\n"
         "                       polish budget (default: generations/16)\n"
         "  --no-cold-fallback   answer 404 on an archive miss instead of\n"
         "                       running the mutated scenario cold\n"
         "\n"
         "admin verbs (live daemon reconfiguration, no restart):\n"
         "  get-config           effective configuration + phase snapshot\n"
         "  set-queue-depth <n>  live bounded-queue capacity\n"
         "  set-cache-entries <n> live front-cache capacity\n"
         "  set-workers <n>      live worker-pool resize\n"
         "  catalog-reload --catalog <file>\n"
         "                       atomically swap the scenario catalog; the\n"
         "                       file holds {\"scenarios\": [{\"name\", "
         "\"base\",\n"
         "                       \"seed\"?, \"tasks\"?, \"window_s\"?}, "
         "...]}\n"
         "  archive-stats        warm-start archive occupancy + hit rates\n"
         "  archive-flush [tenant]\n"
         "                       drop one tenant's archive (all when "
         "omitted)\n"
         "  archive-cap <tenant> <n>\n"
         "                       set a tenant's archived-scenario cap\n"
         "\n"
         "router-only admin verbs (eus_router fleets, docs/fleet.md):\n"
         "  enable-backend <name>   mark a backend routable again\n"
         "  disable-backend <name>  drain a backend out of the rotation\n"
         "  fleet-reload --fleet <file>\n"
         "                       atomically swap the fleet config; the file\n"
         "                       holds {\"backends\": [{\"name\", \"port\", "
         "...}]}\n"
         "\n"
         "options:\n"
         "  --port <n>           daemon port (default EUS_SERVE_PORT or "
         "7461)\n"
         "  --healthz            health snapshot request\n"
         "  --metricsz           metrics snapshot request\n"
         "  --mode <m>           heuristic:<name> | nsga2 | pareto-query\n"
         "                       (default heuristic:min-energy; names:\n"
         "                       min-energy, max-utility,\n"
         "                       max-utility-per-energy, min-min)\n"
         "  --id <s>             correlation id echoed by the server\n"
         "  --scenario <s>       dataset1|dataset2|dataset3|custom "
         "(default dataset1)\n"
         "  --seed <n>           scenario seed\n"
         "  --tenant <id>        warm-start archive key ([A-Za-z0-9._-]);\n"
         "                       allocate: archive + reuse converged "
         "fronts,\n"
         "                       delta: required\n"
         "  --tasks <n>          custom-scenario task count\n"
         "  --window <x>        custom-scenario window seconds\n"
         "  --population <n>     NSGA-II population (even, >= 2)\n"
         "  --generations <n>    NSGA-II generation budget\n"
         "  --mutation <x>       NSGA-II mutation probability\n"
         "  --seeds <list>       comma-separated seed heuristics, or 'all'\n"
         "  --deadline-ms <x>    per-request deadline; on expiry the server\n"
         "                       answers the best front so far (exit 4)\n"
         "  --max-energy <x>     pareto-query energy budget\n"
         "  --min-utility <x>    pareto-query utility floor\n"
         "  --repeat <n>         requests per connection (default 1)\n"
         "  --concurrency <n>    parallel connections (default 1)\n"
         "  --json               print raw response payload(s)\n"
         "  -h, --help           this text\n";
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions opts;
  const auto value_of = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "eus_client: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  const auto parse_count = [](const char* text) -> std::optional<std::size_t> {
    char* end = nullptr;
    const long long n = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || n < 0) return std::nullopt;
    return static_cast<std::size_t>(n);
  };
  const auto parse_num = [](const char* text) -> std::optional<double> {
    char* end = nullptr;
    const double x = std::strtod(text, &end);
    if (end == text || *end != '\0') return std::nullopt;
    return x;
  };
  int start = 1;
  if (argc > 1 && std::string(argv[1]) == "delta") {
    opts.delta = true;
    start = 2;
  } else if (argc > 1 && std::string(argv[1]) == "admin") {
    opts.admin = true;
    if (argc < 3 || argv[2][0] == '-') {
      std::cerr << "eus_client: admin needs a verb (get-config|"
                   "set-queue-depth|set-cache-entries|set-workers|"
                   "catalog-reload|enable-backend|disable-backend|"
                   "fleet-reload|archive-stats|archive-flush|"
                   "archive-cap)\n";
      return std::nullopt;
    }
    opts.admin_action = argv[2];
    start = 3;
    if (argc > 3 && argv[3][0] != '-') {
      // The *-backend verbs and archive-flush take a name, archive-cap a
      // name followed by an integer, the set-* verbs an integer.
      if (opts.admin_action == "enable-backend" ||
          opts.admin_action == "disable-backend" ||
          opts.admin_action == "archive-flush") {
        opts.admin_name = argv[3];
        start = 4;
      } else if (opts.admin_action == "archive-cap") {
        opts.admin_name = argv[3];
        start = 4;
        if (argc > 4 && argv[4][0] != '-') {
          const std::optional<std::size_t> n = parse_count(argv[4]);
          if (!n) {
            std::cerr << "eus_client: archive-cap wants a non-negative "
                         "integer cap, got '"
                      << argv[4] << "'\n";
            return std::nullopt;
          }
          opts.admin_value = n;
          start = 5;
        }
      } else {
        const std::optional<std::size_t> n = parse_count(argv[3]);
        if (!n) {
          std::cerr << "eus_client: admin value wants a non-negative "
                       "integer, got '"
                    << argv[3] << "'\n";
          return std::nullopt;
        }
        opts.admin_value = n;
        start = 4;
      }
    }
  }
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto count_flag = [&](std::optional<std::size_t>& out) -> bool {
      const char* v = value_of(i, arg.c_str());
      if (v == nullptr) return false;
      const std::optional<std::size_t> n = parse_count(v);
      if (!n) {
        std::cerr << "eus_client: " << arg
                  << " wants a non-negative integer, got '" << v << "'\n";
        return false;
      }
      out = n;
      return true;
    };
    const auto num_flag = [&](std::optional<double>& out) -> bool {
      const char* v = value_of(i, arg.c_str());
      if (v == nullptr) return false;
      const std::optional<double> x = parse_num(v);
      if (!x) {
        std::cerr << "eus_client: " << arg << " wants a number, got '" << v
                  << "'\n";
        return false;
      }
      out = x;
      return true;
    };
    if (arg == "--healthz") {
      opts.healthz = true;
    } else if (arg == "--metricsz") {
      opts.metricsz = true;
    } else if (arg == "--json") {
      opts.raw_json = true;
    } else if (arg == "--port") {
      const char* v = value_of(i, "--port");
      if (v == nullptr) return std::nullopt;
      const std::optional<std::size_t> n = parse_count(v);
      if (!n || *n == 0 || *n > 65535) {
        std::cerr << "eus_client: --port wants 1..65535, got '" << v
                  << "'\n";
        return std::nullopt;
      }
      opts.port = static_cast<std::uint16_t>(*n);
    } else if (arg == "--mode") {
      const char* v = value_of(i, "--mode");
      if (v == nullptr) return std::nullopt;
      opts.mode = v;
    } else if (arg == "--id") {
      const char* v = value_of(i, "--id");
      if (v == nullptr) return std::nullopt;
      opts.id = v;
    } else if (arg == "--scenario") {
      const char* v = value_of(i, "--scenario");
      if (v == nullptr) return std::nullopt;
      opts.scenario = v;
    } else if (arg == "--tenant") {
      const char* v = value_of(i, "--tenant");
      if (v == nullptr) return std::nullopt;
      opts.tenant = v;
    } else if (arg == "--add-tasks" || arg == "--remove-tasks" ||
               arg == "--drop-machine") {
      std::optional<std::size_t> n;
      if (!count_flag(n)) return std::nullopt;
      CliMutation m;
      m.op = arg.substr(2);
      if (arg == "--drop-machine") {
        m.machine = *n;
      } else {
        m.count = *n;
      }
      opts.mutations.push_back(m);
    } else if (arg == "--set-window") {
      std::optional<double> x;
      if (!num_flag(x)) return std::nullopt;
      CliMutation m;
      m.op = "set-window";
      m.window_s = *x;
      opts.mutations.push_back(m);
    } else if (arg == "--polish-generations") {
      if (!count_flag(opts.polish_generations)) return std::nullopt;
    } else if (arg == "--no-cold-fallback") {
      opts.cold_fallback = false;
    } else if (arg == "--catalog") {
      const char* v = value_of(i, "--catalog");
      if (v == nullptr) return std::nullopt;
      opts.catalog_path = v;
    } else if (arg == "--fleet") {
      const char* v = value_of(i, "--fleet");
      if (v == nullptr) return std::nullopt;
      opts.fleet_path = v;
    } else if (arg == "--seeds") {
      const char* v = value_of(i, "--seeds");
      if (v == nullptr) return std::nullopt;
      opts.seeds = v;
    } else if (arg == "--seed") {
      std::optional<std::size_t> n;
      if (!count_flag(n)) return std::nullopt;
      opts.seed = static_cast<std::uint64_t>(*n);
    } else if (arg == "--tasks") {
      if (!count_flag(opts.tasks)) return std::nullopt;
    } else if (arg == "--population") {
      if (!count_flag(opts.population)) return std::nullopt;
    } else if (arg == "--generations") {
      if (!count_flag(opts.generations)) return std::nullopt;
    } else if (arg == "--window") {
      if (!num_flag(opts.window_s)) return std::nullopt;
    } else if (arg == "--mutation") {
      if (!num_flag(opts.mutation)) return std::nullopt;
    } else if (arg == "--deadline-ms") {
      std::optional<double> x;
      if (!num_flag(x)) return std::nullopt;
      opts.deadline_ms = *x;
    } else if (arg == "--max-energy") {
      if (!num_flag(opts.max_energy)) return std::nullopt;
    } else if (arg == "--min-utility") {
      if (!num_flag(opts.min_utility)) return std::nullopt;
    } else if (arg == "--repeat" || arg == "--concurrency") {
      std::optional<std::size_t> n;
      if (!count_flag(n)) return std::nullopt;
      if (*n == 0) {
        std::cerr << "eus_client: " << arg << " must be >= 1\n";
        return std::nullopt;
      }
      (arg == "--repeat" ? opts.repeat : opts.concurrency) = *n;
    } else if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      std::exit(kExitOk);
    } else {
      std::cerr << "eus_client: unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (opts.healthz && opts.metricsz) {
    std::cerr << "eus_client: pick one of --healthz / --metricsz\n";
    return std::nullopt;
  }
  if (opts.delta) {
    if (opts.tenant.empty()) {
      std::cerr << "eus_client: delta needs --tenant <id> (the archive "
                   "holding the base front)\n";
      return std::nullopt;
    }
    if (opts.mutations.empty()) {
      std::cerr << "eus_client: delta needs at least one mutation "
                   "(--add-tasks/--remove-tasks/--set-window/"
                   "--drop-machine); an unchanged scenario is an allocate "
                   "request\n";
      return std::nullopt;
    }
  } else if (!opts.mutations.empty() || opts.polish_generations ||
             !opts.cold_fallback) {
    std::cerr << "eus_client: mutation flags apply only to the delta "
                 "subcommand\n";
    return std::nullopt;
  }
  if (opts.admin) {
    const std::string& verb = opts.admin_action;
    const bool is_set = verb == "set-queue-depth" ||
                        verb == "set-cache-entries" || verb == "set-workers";
    const bool is_backend =
        verb == "enable-backend" || verb == "disable-backend";
    if (verb != "get-config" && verb != "catalog-reload" &&
        verb != "fleet-reload" && verb != "archive-stats" &&
        verb != "archive-flush" && verb != "archive-cap" && !is_set &&
        !is_backend) {
      std::cerr << "eus_client: unknown admin verb '" << verb << "'\n";
      return std::nullopt;
    }
    if (is_set && (!opts.admin_value || *opts.admin_value == 0)) {
      std::cerr << "eus_client: admin " << verb
                << " needs an integer value >= 1\n";
      return std::nullopt;
    }
    if (verb == "archive-cap" &&
        (opts.admin_name.empty() || !opts.admin_value ||
         *opts.admin_value == 0)) {
      std::cerr << "eus_client: admin archive-cap needs a tenant name and "
                   "an integer cap >= 1\n";
      return std::nullopt;
    }
    if (is_backend && opts.admin_name.empty()) {
      std::cerr << "eus_client: admin " << verb
                << " needs a backend name\n";
      return std::nullopt;
    }
    if (verb == "catalog-reload" && !opts.catalog_path) {
      std::cerr << "eus_client: admin catalog-reload needs --catalog "
                   "<file>\n";
      return std::nullopt;
    }
    if (verb == "fleet-reload" && !opts.fleet_path) {
      std::cerr << "eus_client: admin fleet-reload needs --fleet <file>\n";
      return std::nullopt;
    }
  }
  return opts;
}

/// Renders the adminz request; nullopt (after printing the reason) when
/// the catalog file cannot be read or is not JSON.
std::optional<std::string> build_admin_request(const CliOptions& opts) {
  JsonObject o;
  o.field("type", "adminz");
  if (!opts.id.empty()) o.field("id", opts.id);
  o.field("action", opts.admin_action);
  if (opts.admin_value) {
    o.field("value", static_cast<std::uint64_t>(*opts.admin_value));
  }
  if (!opts.admin_name.empty()) o.field("name", opts.admin_name);
  const auto splice_file = [&](const std::string& path, const char* key,
                               const char* what) -> bool {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "eus_client: cannot read " << what << " file '" << path
                << "'\n";
      return false;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    try {
      (void)util::parse_json(contents.str());
    } catch (const util::JsonParseError& e) {
      std::cerr << "eus_client: " << what
                << " file is not valid JSON: " << e.what() << '\n';
      return false;
    }
    o.raw(key, contents.str());
    return true;
  };
  if (opts.catalog_path &&
      !splice_file(*opts.catalog_path, "catalog", "catalog")) {
    return std::nullopt;
  }
  if (opts.fleet_path && !splice_file(*opts.fleet_path, "fleet", "fleet")) {
    return std::nullopt;
  }
  return o.str();
}

std::string build_request(const CliOptions& opts) {
  JsonObject o;
  if (opts.healthz || opts.metricsz) {
    o.field("type", opts.healthz ? "healthz" : "metricsz");
    if (!opts.id.empty()) o.field("id", opts.id);
    return o.str();
  }
  JsonObject scenario;
  scenario.field("name", opts.scenario);
  if (opts.seed) scenario.field("seed", *opts.seed);
  if (opts.tasks) {
    scenario.field("tasks", static_cast<std::uint64_t>(*opts.tasks));
  }
  if (opts.window_s) scenario.field("window_s", *opts.window_s);
  if (opts.delta) {
    o.field("type", "delta");
    if (!opts.id.empty()) o.field("id", opts.id);
    o.field("tenant", opts.tenant);
    o.raw("base", scenario.str());
    std::string mutations = "[";
    for (std::size_t i = 0; i < opts.mutations.size(); ++i) {
      const CliMutation& m = opts.mutations[i];
      if (i != 0) mutations += ',';
      JsonObject mut;
      mut.field("op", m.op);
      if (m.op == "add-tasks" || m.op == "remove-tasks") {
        mut.field("count", static_cast<std::uint64_t>(m.count));
      } else if (m.op == "set-window") {
        mut.field("window_s", m.window_s);
      } else {
        mut.field("machine", static_cast<std::uint64_t>(m.machine));
      }
      mutations += mut.str();
    }
    mutations += ']';
    o.raw("mutations", mutations);
    if (opts.polish_generations) {
      o.field("polish_generations",
              static_cast<std::uint64_t>(*opts.polish_generations));
    }
    if (!opts.cold_fallback) o.field("cold_fallback", false);
  } else {
    o.field("type", "allocate");
    if (!opts.id.empty()) o.field("id", opts.id);
    o.field("mode", opts.mode);
    if (!opts.tenant.empty()) o.field("tenant", opts.tenant);
    o.raw("scenario", scenario.str());
  }
  if (opts.population || opts.generations || opts.mutation || opts.seeds) {
    JsonObject nsga2;
    if (opts.population) {
      nsga2.field("population", static_cast<std::uint64_t>(*opts.population));
    }
    if (opts.generations) {
      nsga2.field("generations",
                  static_cast<std::uint64_t>(*opts.generations));
    }
    if (opts.mutation) nsga2.field("mutation_probability", *opts.mutation);
    if (opts.seeds) {
      std::string array = "[";
      if (*opts.seeds == "all") {
        bool first = true;
        for (const SeedHeuristic h : all_seed_heuristics()) {
          if (!first) array += ',';
          first = false;
          array += '"';
          array += heuristic_slug(h);
          array += '"';
        }
      } else {
        std::stringstream stream(*opts.seeds);
        std::string token;
        bool first = true;
        while (std::getline(stream, token, ',')) {
          if (token.empty()) continue;
          if (!first) array += ',';
          first = false;
          array += '"' + json_escape(token) + '"';
        }
      }
      array += ']';
      nsga2.raw("seeds", array);
    }
    o.raw("nsga2", nsga2.str());
  }
  if (opts.deadline_ms > 0.0) o.field("deadline_ms", opts.deadline_ms);
  if (opts.max_energy || opts.min_utility) {
    JsonObject query;
    if (opts.max_energy) query.field("max_energy", *opts.max_energy);
    if (opts.min_utility) query.field("min_utility", *opts.min_utility);
    o.raw("query", query.str());
  }
  return o.str();
}

/// Maps one response payload to the tool's exit code.
int response_exit_code(const util::JsonValue& doc) {
  const int code = response_code(doc, 500);
  if (code == kCodePartial) return kExitDeadlineExceeded;
  if (code >= 400) return kExitServerError;
  return kExitOk;
}

void print_response(const util::JsonValue& doc) {
  const int code = response_code(doc, 0);
  std::cout << "status: " << doc.string_or("status", "?") << " (code "
            << code << ")\n";
  const std::string error = doc.string_or("error", "");
  if (!error.empty()) {
    std::cout << "error: " << error << '\n';
    return;
  }
  if (const std::string action = doc.string_or("action", "");
      !action.empty()) {
    std::cout << "action: " << action << '\n';
    for (const char* key :
         {"phase", "queue_depth", "queue_size", "workers", "workers_active",
          "cache_entries", "cache_size", "eval_threads", "catalog_generation",
          "catalog_size", "service", "policy", "backend", "enabled",
          "tenants", "entries", "genomes", "flushed", "cap"}) {
      if (const util::JsonValue* v = doc.get(key); v != nullptr) {
        std::cout << key << ": ";
        if (v->is_string()) {
          std::cout << v->string;
        } else if (v->is_number()) {
          std::cout << v->number;
        } else if (v->kind == util::JsonValue::Kind::kBool) {
          std::cout << (v->boolean ? "true" : "false");
        }
        std::cout << '\n';
      }
    }
    if (const util::JsonValue* per_tenant = doc.get("per_tenant");
        per_tenant != nullptr && per_tenant->is_array()) {
      for (const util::JsonValue& t : per_tenant->array) {
        std::cout << "  " << t.string_or("tenant", "?") << ": entries "
                  << t.number_or("entries", 0.0) << "/"
                  << t.number_or("cap", 0.0) << ", genomes "
                  << t.number_or("genomes", 0.0) << ", warm hits "
                  << t.number_or("warm_hits", 0.0) << ", misses "
                  << t.number_or("misses", 0.0) << '\n';
      }
    }
    if (const util::JsonValue* backends = doc.get("backends");
        backends != nullptr) {
      if (backends->is_number()) {
        std::cout << "backends: " << backends->number << '\n';
      } else if (backends->is_array()) {
        std::cout << "backends: " << backends->array.size() << '\n';
        for (const util::JsonValue& b : backends->array) {
          std::cout << "  " << b.string_or("name", "?") << " port "
                    << b.number_or("port", 0.0)
                    << (b.get("enabled") != nullptr && b.get("enabled")->boolean
                            ? ""
                            : " [disabled]")
                    << (b.get("up") != nullptr && b.get("up")->boolean
                            ? " up"
                            : " DOWN")
                    << ", in-flight " << b.number_or("in_flight", 0.0) << "/"
                    << b.number_or("max_in_flight", 0.0) << ", served "
                    << b.number_or("requests", 0.0) << ", failures "
                    << b.number_or("failures", 0.0) << '\n';
        }
      }
    }
    return;
  }
  const std::string mode = doc.string_or("mode", "");
  if (!mode.empty()) {
    std::cout << "mode: " << mode << ", scenario: "
              << doc.string_or("scenario", "?");
    if (doc.get("cache") != nullptr) {
      std::cout << ", cache: " << doc.string_or("cache", "?");
    }
    if (const std::string tenant = doc.string_or("tenant", "");
        !tenant.empty()) {
      std::cout << ", tenant: " << tenant;
    }
    if (const util::JsonValue* warm = doc.get("warm");
        warm != nullptr && warm->kind == util::JsonValue::Kind::kBool) {
      std::cout << ", warm: " << (warm->boolean ? "yes" : "no");
    }
    std::cout << '\n';
  }
  if (const util::JsonValue* front = doc.get("front");
      front != nullptr && front->is_array()) {
    std::cout << "front: " << front->array.size() << " point"
              << (front->array.size() == 1 ? "" : "s") << '\n';
  }
  if (const util::JsonValue* point = doc.get("objectives");
      point != nullptr && point->is_object()) {
    std::cout << "objectives: energy " << point->number_or("energy", 0.0)
              << " J, utility " << point->number_or("utility", 0.0) << '\n';
  }
  if (const util::JsonValue* timing = doc.get("timing");
      timing != nullptr && timing->is_object()) {
    std::cout << "timing: queue " << timing->number_or("queue_ms", 0.0)
              << " ms, service " << timing->number_or("service_ms", 0.0)
              << " ms\n";
  }
  if (doc.get("uptime_s") != nullptr) {
    if (const std::string phase = doc.string_or("phase", "");
        !phase.empty()) {
      std::cout << "phase: " << phase << '\n';
    }
    std::cout << "uptime_s: " << doc.number_or("uptime_s", 0.0)
              << ", queue_depth: " << doc.number_or("queue_depth", 0.0)
              << "/" << doc.number_or("queue_capacity", 0.0)
              << ", in_flight: " << doc.number_or("in_flight", 0.0) << '\n';
  }
}

struct LoadStats {
  std::mutex mutex;
  std::vector<double> latencies_ms;
  std::size_t ok = 0;
  std::size_t partial = 0;
  std::size_t overloaded = 0;
  std::size_t errors = 0;
  std::atomic<bool> connect_failed{false};
};

void run_connection(const CliOptions& opts, const std::string& request,
                    LoadStats& stats) {
  ClientConnection connection;
  try {
    connection.connect(opts.port);
  } catch (const ConnectError& e) {
    stats.connect_failed = true;
    const std::lock_guard lock(stats.mutex);
    std::cerr << "eus_client: " << e.what() << '\n';
    return;
  }
  for (std::size_t r = 0; r < opts.repeat; ++r) {
    const Stopwatch clock;
    std::string payload;
    try {
      payload = connection.call(request);
    } catch (const std::exception& e) {
      stats.connect_failed = true;
      const std::lock_guard lock(stats.mutex);
      std::cerr << "eus_client: " << e.what() << '\n';
      return;
    }
    const double ms = clock.milliseconds();
    int code = 500;
    try {
      code = response_code(util::parse_json(payload), 500);
    } catch (const util::JsonParseError&) {
    }
    const std::lock_guard lock(stats.mutex);
    stats.latencies_ms.push_back(ms);
    if (code == kCodeOk) {
      ++stats.ok;
    } else if (code == kCodePartial) {
      ++stats.partial;
    } else if (code == kCodeOverloaded) {
      ++stats.overloaded;
    } else {
      ++stats.errors;
    }
  }
}

double quantile_ms(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

int run_load(const CliOptions& opts, const std::string& request) {
  LoadStats stats;
  const Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(opts.concurrency);
  for (std::size_t c = 0; c < opts.concurrency; ++c) {
    threads.emplace_back(
        [&opts, &request, &stats] { run_connection(opts, request, stats); });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.seconds();

  std::vector<double> sorted = stats.latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t total = sorted.size();
  std::cout << "requests: " << total << " (" << stats.ok << " ok, "
            << stats.partial << " partial, " << stats.overloaded
            << " overloaded, " << stats.errors << " error)\n"
            << "wall: " << wall_s << " s, throughput: "
            << (wall_s > 0.0 ? static_cast<double>(total) / wall_s : 0.0)
            << " req/s\n"
            << "latency ms: p50 " << quantile_ms(sorted, 0.50) << ", p95 "
            << quantile_ms(sorted, 0.95) << ", max "
            << (sorted.empty() ? 0.0 : sorted.back()) << '\n';

  if (stats.connect_failed) return kExitConnectFailure;
  if (stats.errors > 0 || stats.overloaded > 0) return kExitServerError;
  if (stats.partial > 0) return kExitDeadlineExceeded;
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<CliOptions> parsed = parse_args(argc, argv);
  if (!parsed) {
    print_usage(std::cerr);
    return kExitUsage;
  }
  const CliOptions& opts = *parsed;
  std::string request;
  if (opts.admin) {
    const std::optional<std::string> admin_request =
        build_admin_request(opts);
    if (!admin_request) return kExitUsage;
    request = *admin_request;
  } else {
    request = build_request(opts);
  }

  if (opts.repeat > 1 || opts.concurrency > 1) {
    return run_load(opts, request);
  }

  std::string payload;
  try {
    ClientConnection connection;
    connection.connect(opts.port);
    payload = connection.call(request);
  } catch (const ConnectError& e) {
    std::cerr << "eus_client: " << e.what() << '\n';
    return kExitConnectFailure;
  } catch (const std::exception& e) {
    std::cerr << "eus_client: " << e.what() << '\n';
    return kExitConnectFailure;
  }

  if (opts.raw_json) {
    std::cout << payload << '\n';
  }
  util::JsonValue doc;
  try {
    doc = util::parse_json(payload);
  } catch (const util::JsonParseError& e) {
    std::cerr << "eus_client: unparseable response: " << e.what() << '\n';
    return kExitServerError;
  }
  if (!opts.raw_json) print_response(doc);
  return response_exit_code(doc);
}
