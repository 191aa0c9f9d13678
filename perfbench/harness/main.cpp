// eus_perfbench: runs one benchmark workload in process and writes its raw
// results (timings, fronts, counters, spans) as one JSON document.  The
// metrics and correctness checks are derived from that document by
// perfbench/run.py, which is the command to use:
//
//   eus_perfbench --workload study-ds3 --seed 7 --seconds 10 --trace 0
//                 --threads 4 --out result.json

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

extern char** environ;

namespace {

/// Drops every EUS_* variable before any eus code runs, so the program's
/// own environment knobs cannot change what the benchmark measures.
void scrub_eus_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("EUS_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

[[noreturn]] void usage() {
  std::cerr << "usage: eus_perfbench --workload study-ds3|serve-fleet"
               " --seed N --seconds S --trace 0|1 --threads T --out FILE"
               " [--setups K]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  scrub_eus_environment();
  (void)perfbench::epoch();  // start the harness clock

  perfbench::Options options;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--threads") {
        options.threads = std::stoul(value);
      } else if (flag == "--setups") {
        options.setups = std::stoul(value);
      } else if (flag == "--out") {
        out_path = value;
      } else {
        usage();
      }
    } catch (const std::exception&) {
      usage();
    }
  }
  if (argc % 2 != 1 || out_path.empty() || options.threads == 0 ||
      options.setups == 0 || !(options.seconds > 0.0)) {
    usage();
  }

  std::string document;
  try {
    if (options.workload == "study-ds3") {
      document = perfbench::run_study(options);
    } else if (options.workload == "serve-fleet") {
      document = perfbench::run_serve_fleet(options);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "eus_perfbench: " << e.what() << '\n';
    return 1;
  }
  std::ofstream out(out_path);
  out << document << '\n';
  out.close();
  if (!out) {
    std::cerr << "eus_perfbench: cannot write " << out_path << '\n';
    return 1;
  }
  return 0;
}

namespace perfbench {

std::string Tracer::json() const {
  std::vector<std::string> items;
  items.reserve(spans_.size());
  for (const Span& s : spans_) {
    eus::JsonObject o;
    o.field("name", s.name);
    o.field("parent", static_cast<std::int64_t>(s.parent));
    o.field("start_s", s.start_s);
    o.field("end_s", s.end_s);
    if (!s.key.empty()) o.field("key", s.key);
    items.push_back(o.str());
  }
  return json_array(items);
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (const double v : values) items.push_back(eus::json_number(v));
  return json_array(items);
}

std::string front_json(const std::vector<eus::EUPoint>& front) {
  std::vector<std::string> items;
  items.reserve(front.size());
  for (const eus::EUPoint& p : front) {
    items.push_back("[" + eus::json_number(p.energy) + "," +
                    eus::json_number(p.utility) + "]");
  }
  return json_array(items);
}

std::string counters_json(const eus::MetricsSnapshot& snap) {
  eus::JsonObject o;
  for (const auto& [name, value] : snap.counters) o.field(name, value);
  return o.str();
}

std::string timers_json(const eus::MetricsSnapshot& snap) {
  eus::JsonObject o;
  for (const auto& [name, stat] : snap.timers) o.field(name, stat.seconds);
  return o.str();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
