// The benchmark's report: end-to-end and per-layer metrics, the result line
// the harness parses, and the span ledger of a traced run (per-layer self
// time plus a Chrome trace-event file).

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed answer checks
  std::vector<std::string> notes;     // human-readable lines

  bool correct() const { return problems.empty(); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a failed check ("" = passed).
  void Check(const std::string& verdict) {
    if (!verdict.empty()) problems.push_back(verdict);
  }
};

// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(const Report& report);

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// Per span name: how many spans, their summed duration, and their self time
// (duration minus the duration of their direct children).
struct LayerTime {
  std::string name;
  uint64_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<LayerTime> SelfTimes(const std::vector<jackpine::obs::SpanRecord>& spans);

// Summed duration of the spans called `name`, in ms.
double SpanTotalMs(const std::vector<jackpine::obs::SpanRecord>& spans,
                   const std::string& name);

// Writes the spans as Chrome trace-event JSON; false on an I/O error.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<jackpine::obs::SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
