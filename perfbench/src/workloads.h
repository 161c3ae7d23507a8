// The two workloads (README.md): paper_shard2 and served_mixed_rw. Each
// builds the system from its public API, checks every answer, and fills a
// Report with the end-to-end metrics (untraced run) or the per-layer
// metrics and tracing overhead (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Scratch directory for storage directories and Chrome traces, relative to
// the working directory.
inline constexpr const char* kOutDir = ".bench_out";

const std::vector<std::string>& WorkloadNames();

// Runs one workload; the report's problems list every failed check.
Report RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
