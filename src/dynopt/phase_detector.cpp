#include <cmath>

#include "dynopt/dynopt.hpp"
#include "support/assert.hpp"

namespace ilc::dyn {

PhaseDetector::PhaseDetector(double threshold, unsigned window)
    : threshold_(threshold), window_(window) {
  ILC_CHECK(window_ >= 2);
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
  if (!recent_.empty() &&
      distance(signature, recent_.back()) > threshold_) {
    // Behaviour jumped: new phase, history restarts.
    ++phase_;
    recent_.clear();
  }
  recent_.push_back(signature);
  if (recent_.size() > window_) recent_.erase(recent_.begin());
}

bool PhaseDetector::stable() const {
  if (recent_.size() < window_) return false;
  for (std::size_t i = 1; i < recent_.size(); ++i)
    if (distance(recent_[i], recent_[0]) > threshold_) return false;
  return true;
}

}  // namespace ilc::dyn
