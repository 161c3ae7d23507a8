#include "ledger.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

#include "common/string_util.h"

namespace perfbench {

using jackpine::StrFormat;
using jackpine::obs::SpanRecord;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string ResultLine(const Report& report) {
  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += StrFormat("%s: {\"value\": %.17g, \"unit\": %s}",
                         JsonString(m.name).c_str(), m.value,
                         JsonString(m.unit).c_str());
  }
  return StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::vector<LayerTime> SelfTimes(const std::vector<SpanRecord>& spans) {
  // Children may run in parallel (scatter legs) or overlap (a server span
  // under the client rpc that also parents send/recv), so a span's self
  // time is its duration minus the union of its children's intervals,
  // clipped to the span.
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0) kids[s.parent_id].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, LayerTime> by_name;
  for (const SpanRecord& s : spans) {
    double covered_s = 0.0;
    if (auto it = kids.find(s.span_id); it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_s);
        hi = std::min(hi, s.end_s);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered_s += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered_s += cur_hi - cur_lo;
    }
    LayerTime& t = by_name[s.name];
    t.name = s.name;
    t.spans += 1;
    t.total_ms += (s.end_s - s.start_s) * 1e3;
    t.self_ms += (s.end_s - s.start_s - covered_s) * 1e3;
  }
  std::vector<LayerTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

double SpanTotalMs(const std::vector<SpanRecord>& spans,
                   const std::string& name) {
  double ms = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.name == name) ms += (s.end_s - s.start_s) * 1e3;
  }
  return ms;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << jackpine::obs::SpansToChromeTrace(spans).Dump();
  return static_cast<bool>(out);
}

}  // namespace perfbench
