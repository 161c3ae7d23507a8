// jpbench: runs one workload of the Jackpine benchmark and prints its
// report; the last stdout line is the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//
//   jpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Exit status: 0 when every answer check passed, 1 when one failed, 2 on a
// usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "jpbench: %s\nusage: jpbench --workload "
               "paper_shard2|served_mixed_rw --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const auto& name : perfbench::WorkloadNames()) {
    known = known || name == opts.workload;
  }
  if (!known) return Usage(("unknown workload '" + opts.workload + "'").c_str());
  if (!(opts.seconds > 0.0)) return Usage("--seconds must be positive");

  const perfbench::Report report = perfbench::RunWorkload(opts);
  std::printf("workload %s, seed %llu, %s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced");
  for (const auto& note : report.notes) std::printf("%s\n", note.c_str());
  for (const auto& m : report.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const auto& p : report.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s\n", perfbench::ResultLine(report).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
