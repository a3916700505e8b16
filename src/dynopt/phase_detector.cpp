#include <cmath>

#include "dynopt/dynopt.hpp"
#include "support/assert.hpp"

namespace ilc::dyn {

PhaseDetector::PhaseDetector(double threshold) : threshold_(threshold) {
  ILC_CHECK(threshold_ > 0.0);
}

double PhaseDetector::distance(const std::vector<double>& a,
                               const std::vector<double>& b) const {
  ILC_CHECK(a.size() == b.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::abs(a[i] - b[i]);
    den += std::abs(a[i]) + std::abs(b[i]);
  }
  return den > 1e-12 ? 2.0 * num / den : 0.0;  // relative L1
}

void PhaseDetector::feed(const std::vector<double>& signature) {
  if (!last_.empty() && distance(signature, last_) > threshold_) ++phase_;
  last_ = signature;
}

}  // namespace ilc::dyn
