// Summary statistics for the benchmark's samples: medians, quantiles, the
// geometric mean, and the p99 rule (a p99 is reported only when at least
// kMinTailSamples samples lie beyond it, so a tail figure always rests on
// more than a handful of observations).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinTailSamples = 10;

// Linear-interpolation quantile (numpy's default, R type 7) of `values`,
// q in [0, 1]. Empty input yields 0.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// The p99 of `values`, or nullopt when fewer than kMinTailSamples samples
// are strictly greater than it.
std::optional<double> TailP99(const std::vector<double>& values);

// Geometric mean of strictly positive values; nullopt when `values` is
// empty or holds a value <= 0 (a zero latency means a broken clock read).
std::optional<double> GeoMean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
