#include "pagerank/error.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lfpr {

double linfNorm(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("linfNorm: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    // std::max(m, NaN) keeps m; a NaN must instead fail every bound check.
    if (std::isnan(d)) return d;
    m = std::max(m, d);
  }
  return m;
}

double l1Norm(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("l1Norm: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

double rankSum(std::span<const double> ranks) {
  double s = 0.0;
  for (double r : ranks) s += r;
  return s;
}

}  // namespace lfpr
