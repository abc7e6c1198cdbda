// perfbench: runs one workload in this process and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (name -> value, unit). --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones and writes the spans to --spans. Exits 1
// when a check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\nworkloads:");
  for (const perfbench::WorkloadInfo& info : perfbench::workloads())
    std::fprintf(stderr, " %s", info.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) usage("missing value for " + flag);
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  const perfbench::WorkloadInfo* info = perfbench::find_workload(workload);
  if (info == nullptr) usage("unknown workload '" + workload + "'");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  try {
    const perfbench::RunResult result = perfbench::run(*info, options);
    for (const std::string& failure : result.failures)
      std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
    for (const auto& [name, metric] : result.metrics)
      std::printf("# %-36s %16.6f %s\n", name.c_str(), metric.first, metric.second.c_str());
    std::printf("%s\n", perfbench::to_json(result).c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
