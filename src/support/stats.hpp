// Small statistics helpers used by the characterization layer (counter
// normalization, mutual information) and the experiment harnesses
// (averaging search trials, summarizing figures).
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/assert.hpp"

namespace ilc::support {

inline double mean(const std::vector<double>& v) {
  ILC_ASSERT(!v.empty());
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Geometric mean; every element must be > 0.
inline double geomean(const std::vector<double>& v) {
  ILC_ASSERT(!v.empty());
  double s = 0.0;
  for (double x : v) {
    ILC_ASSERT(x > 0.0);
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

inline double min_of(const std::vector<double>& v) {
  ILC_ASSERT(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

inline double max_of(const std::vector<double>& v) {
  ILC_ASSERT(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

}  // namespace ilc::support
