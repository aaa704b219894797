#pragma once

// Summary statistics of the benchmark: quantiles, medians and geometric
// means. Kept local to the benchmark (and covered by its self-test) so the
// instrument does not depend on the code it measures.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] with linear interpolation between closest ranks
/// (Hyndman & Fan type 7, numpy's default). Throws on an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0, 1]");
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  if (hi == lo) return a;
  const double b = *std::min_element(
      v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Geometric mean of strictly positive values. Throws on an empty sample
/// or a non-positive value (a zero makespan ratio is a bug upstream).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("geomean of an empty sample");
  double logSum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0) || !std::isfinite(x)) {
      throw std::invalid_argument("geomean needs positive finite values");
    }
    logSum += std::log(x);
  }
  return std::exp(logSum / static_cast<double>(v.size()));
}

}  // namespace perfbench
