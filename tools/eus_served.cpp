// eus_served — the allocation-as-a-service daemon.  Listens on loopback,
// speaks length-prefixed JSON frames (docs/serving.md), executes heuristic
// / NSGA-II / pareto-query allocate requests on a bounded worker queue
// with explicit backpressure, and serves a live admin plane (adminz:
// queue depth, cache entries, worker count, catalog hot-reload).
//
// The process lifecycle lives in ServeRuntime (docs/runtime.md): a phased
// state machine (booting → running → draining → halting → halted) with a
// dedicated signal thread consuming SIGINT/SIGTERM via sigtimedwait and an
// ordered teardown that answers every accepted request before exit.
//
//   eus_served                         # EUS_SERVE_PORT (default 7461)
//   eus_served --port 0               # ephemeral port, printed on stdout
//   EUS_RUNLOG=serve.jsonl eus_served # JSONL request log
//
// Exit codes: 0 clean shutdown, 1 startup failure, 2 usage error.

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "serve/runtime.hpp"
#include "util/env.hpp"

#ifndef EUS_VERSION
#define EUS_VERSION "0.0.0"
#endif

namespace {

using namespace eus;
using namespace eus::serve;

constexpr int kExitOk = 0;
constexpr int kExitStartupFailure = 1;
constexpr int kExitUsage = 2;

struct CliOptions {
  std::uint16_t port = serve_port();
  std::size_t queue_depth = serve_queue_depth();
  std::size_t workers = 2;
  std::size_t eval_threads = bench_threads();  // 0 = hardware concurrency
  std::size_t cache_entries = 64;
  std::size_t max_frame_bytes = kMaxFrameBytes;
  double diagnostics_period_s = 10.0;  // 0 disables the diagnostics thread
  std::optional<std::string> runlog = env_string("EUS_RUNLOG");
  // Warm-start archive (docs/tenant.md).
  std::optional<std::string> archive = env_string("EUS_ARCHIVE");
  std::size_t archive_tenants = 64;   // 0 disables the archive
  std::size_t archive_entries = 8;    // scenarios kept per tenant
  std::size_t archive_genomes = 32;   // genomes kept per scenario
};

void print_usage(std::ostream& out) {
  out << "usage: eus_served [options]\n"
         "  --port <n>           listen port on 127.0.0.1 (0 = ephemeral;\n"
         "                       default EUS_SERVE_PORT or 7461)\n"
         "  --queue-depth <n>    bounded request queue; overflow is\n"
         "                       answered with a 503 error (default\n"
         "                       EUS_SERVE_QUEUE_DEPTH or 64)\n"
         "  --workers <n>        request-executing worker threads (default "
         "2)\n"
         "  --threads <n>        shared NSGA-II evaluation pool: 0 =\n"
         "                       hardware concurrency, 1 = inline (default\n"
         "                       EUS_THREADS)\n"
         "  --cache-entries <n>  LRU front-cache entries; 0 disables\n"
         "                       (default 64; --cache is a synonym)\n"
         "  --max-frame <n>      per-frame payload byte cap (default 4 "
         "MiB)\n"
         "  --diagnostics <s>    seconds between diagnostics snapshots in\n"
         "                       the run log; 0 disables (default 10)\n"
         "  --runlog <path>      JSONL request log (default EUS_RUNLOG)\n"
         "  --archive <path>     warm-start archive checkpoint file: loaded\n"
         "                       on boot (a corrupt file cold-starts),\n"
         "                       written on drain (default EUS_ARCHIVE;\n"
         "                       unset = in-memory archive only)\n"
         "  --archive-tenants <n> max tenants in the warm-start archive;\n"
         "                       0 disables warm starts and the archive-*\n"
         "                       admin verbs (default 64)\n"
         "  --archive-entries <n> scenarios kept per tenant (default 8;\n"
         "                       per-tenant override: archive-cap verb)\n"
         "  --archive-genomes <n> genomes kept per scenario (default 32)\n"
         "  --version            print the version and exit\n"
         "  -h, --help           this text\n"
         "\n"
         "All of queue depth, cache entries, worker count, the scenario\n"
         "catalog and the per-tenant archive caps are also live-tunable\n"
         "without a restart: see `eus_client admin --help`, docs/runtime.md\n"
         "and docs/tenant.md.\n";
}

std::optional<std::size_t> parse_size(const char* text) {
  char* end = nullptr;
  const long long n = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || n < 0) return std::nullopt;
  return static_cast<std::size_t>(n);
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions opts;
  const auto value_of = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "eus_served: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  const auto size_flag = [&](int& i, const char* flag,
                             std::size_t& out) -> bool {
    const char* v = value_of(i, flag);
    if (v == nullptr) return false;
    const std::optional<std::size_t> n = parse_size(v);
    if (!n) {
      std::cerr << "eus_served: " << flag
                << " wants a non-negative integer, got '" << v << "'\n";
      return false;
    }
    out = *n;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      const char* v = value_of(i, "--port");
      if (v == nullptr) return std::nullopt;
      const std::optional<std::size_t> n = parse_size(v);
      if (!n || *n > 65535) {
        std::cerr << "eus_served: --port wants 0..65535, got '" << v
                  << "'\n";
        return std::nullopt;
      }
      opts.port = static_cast<std::uint16_t>(*n);
    } else if (arg == "--queue-depth") {
      if (!size_flag(i, "--queue-depth", opts.queue_depth)) {
        return std::nullopt;
      }
    } else if (arg == "--workers") {
      if (!size_flag(i, "--workers", opts.workers)) return std::nullopt;
    } else if (arg == "--threads") {
      if (!size_flag(i, "--threads", opts.eval_threads)) {
        return std::nullopt;
      }
    } else if (arg == "--cache" || arg == "--cache-entries") {
      if (!size_flag(i, arg.c_str(), opts.cache_entries)) {
        return std::nullopt;
      }
    } else if (arg == "--max-frame") {
      if (!size_flag(i, "--max-frame", opts.max_frame_bytes)) {
        return std::nullopt;
      }
    } else if (arg == "--diagnostics") {
      const char* v = value_of(i, "--diagnostics");
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const double s = std::strtod(v, &end);
      if (end == v || *end != '\0' || s < 0.0) {
        std::cerr << "eus_served: --diagnostics wants a non-negative "
                     "number of seconds, got '"
                  << v << "'\n";
        return std::nullopt;
      }
      opts.diagnostics_period_s = s;
    } else if (arg == "--runlog") {
      const char* v = value_of(i, "--runlog");
      if (v == nullptr) return std::nullopt;
      opts.runlog = v;
    } else if (arg == "--archive") {
      const char* v = value_of(i, "--archive");
      if (v == nullptr) return std::nullopt;
      opts.archive = v;
    } else if (arg == "--archive-tenants") {
      if (!size_flag(i, "--archive-tenants", opts.archive_tenants)) {
        return std::nullopt;
      }
    } else if (arg == "--archive-entries") {
      if (!size_flag(i, "--archive-entries", opts.archive_entries)) {
        return std::nullopt;
      }
    } else if (arg == "--archive-genomes") {
      if (!size_flag(i, "--archive-genomes", opts.archive_genomes)) {
        return std::nullopt;
      }
    } else if (arg == "--version") {
      std::cout << "eus_served " << EUS_VERSION << '\n';
      std::exit(kExitOk);
    } else if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      std::exit(kExitOk);
    } else {
      std::cerr << "eus_served: unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (opts.queue_depth == 0 || opts.workers == 0) {
    std::cerr << "eus_served: --queue-depth and --workers must be >= 1\n";
    return std::nullopt;
  }
  if (opts.workers > kMaxWorkers) {
    std::cerr << "eus_served: --workers wants 1.." << kMaxWorkers
              << ", got " << opts.workers << '\n';
    return std::nullopt;
  }
  if (opts.archive_tenants > 0 &&
      (opts.archive_entries == 0 || opts.archive_genomes == 0)) {
    std::cerr << "eus_served: --archive-entries and --archive-genomes must "
                 "be >= 1 (use --archive-tenants 0 to disable the "
                 "archive)\n";
    return std::nullopt;
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<CliOptions> parsed = parse_args(argc, argv);
  if (!parsed) {
    print_usage(std::cerr);
    return kExitUsage;
  }
  const CliOptions& opts = *parsed;

  ::signal(SIGPIPE, SIG_IGN);

  RuntimeConfig config;
  config.server.port = opts.port;
  config.server.queue_depth = opts.queue_depth;
  config.server.workers = opts.workers;
  config.server.eval_threads = opts.eval_threads;
  config.server.cache_entries = opts.cache_entries;
  config.server.max_frame_bytes = opts.max_frame_bytes;
  config.runlog_path = opts.runlog.value_or("");
  config.archive.max_tenants = opts.archive_tenants;
  config.archive.entries_per_tenant = opts.archive_entries;
  config.archive.genomes_per_entry = opts.archive_genomes;
  config.archive_path = opts.archive.value_or("");
  config.diagnostics_period_s = opts.diagnostics_period_s;
  config.signal_thread = true;

  try {
    ServeRuntime runtime(config);
    runtime.boot();
    std::cout << "eus_served " << EUS_VERSION << " listening on 127.0.0.1:"
              << runtime.server().port() << " (queue " << opts.queue_depth
              << ", workers " << opts.workers << ", cache "
              << opts.cache_entries << ", eval-threads "
              << runtime.server().eval_threads()
              << ", phase " << to_string(runtime.phase()) << ")"
              << std::endl;
    runtime.run();
    std::cout << "eus_served: drained, bye (phase "
              << to_string(runtime.phase()) << ")" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "eus_served: " << e.what() << '\n';
    return kExitStartupFailure;
  }
  return kExitOk;
}
