#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::optional<double> TailP99(const std::vector<double>& values) {
  const double p99 = Quantile(values, 0.99);
  const size_t beyond = static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [p99](double v) { return v > p99; }));
  if (beyond < kMinTailSamples) return std::nullopt;
  return p99;
}

std::optional<double> GeoMean(const std::vector<double>& values) {
  if (values.empty()) return std::nullopt;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return std::nullopt;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
