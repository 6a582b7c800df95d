// The repo benchmark: one binary, one workload per invocation.
//
//   netent_perfbench --workload <fleet_admit|fleet_churn|open_arrivals|enforce_drill>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Prints the environment stamp, every metric under its own name with its
// unit, every per-layer metric with its base, each correctness check, and as
// the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The metrics are the gated end-to-end ones (--trace 0) or the
// per-layer ones (--trace 1). Exits 1 when a correctness check fails.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!parse_args(argc, argv, args)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::cerr << "usage: netent_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  perfbench::print_environment(args);
  perfbench::Report report;
  try {
    if (args.workload == "fleet_admit") {
      perfbench::run_fleet_admit(args, report);
    } else if (args.workload == "fleet_churn") {
      perfbench::run_fleet_churn(args, report);
    } else if (args.workload == "open_arrivals") {
      perfbench::run_open_arrivals(args, report);
    } else if (args.workload == "enforce_drill") {
      perfbench::run_enforce_drill(args, report);
    } else {
      std::cerr << "unknown workload: " << args.workload << '\n';
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "benchmark failed: " << error.what() << '\n';
    return 1;
  }
  report.print_result(args.trace);
  return report.correct() ? EXIT_SUCCESS : EXIT_FAILURE;
}
