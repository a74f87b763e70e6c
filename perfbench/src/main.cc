// perfbench: the backup/restore benchmark program.
//
//   perfbench --workload <backup-linux|backup-vm|restore-linux>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --list-metrics
//
// Prints a text block (seed, input shape, fleet, every metric with its
// unit, and for --trace 1 the blocking-path tables), then one JSON line:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// an operation failed, 2 on a usage or set-up error.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "report.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
            << "workloads:";
  for (const auto& d : perfbench::workload_defs()) std::cerr << " " << d.name;
  std::cerr << "\n";
  std::exit(2);
}

double parse_seconds(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &used);
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": '" + v + "'");
  }
  if (used != v.size() || !(d > 0.0)) {
    usage("bad value for " + flag + ": '" + v + "'");
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    // "<trace mode> <name> <unit>", the catalog BENCHMARK.json must match.
    for (const auto& d : perfbench::end_to_end_metrics()) {
      std::cout << "0 " << d.name << " " << d.unit << "\n";
    }
    for (const auto& d : perfbench::per_layer_metrics()) {
      std::cout << "1 " << d.name << " " << d.unit << "\n";
    }
    return 0;
  }
  perfbench::Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opts.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      try {
        std::size_t used = 0;
        opts.seed = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        usage("bad value for --seed: '" + v + "'");
      }
    } else if (flag == "--seconds") {
      opts.seconds = parse_seconds(flag, v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");

  try {
    perfbench::find_workload(opts.workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  try {
    const perfbench::RunResult res = perfbench::run_workload(opts, std::cout);
    res.report.print_text(std::cout);
    const auto& catalog = opts.trace ? perfbench::per_layer_metrics()
                                     : perfbench::end_to_end_metrics();
    std::cout << res.report.json_line(catalog, res.outcome) << std::endl;
    return res.outcome.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
