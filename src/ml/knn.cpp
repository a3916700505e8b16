#include <algorithm>
#include <cmath>

#include "ml/ml.hpp"
#include "support/assert.hpp"

namespace ilc::ml {

namespace {

double dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

}  // namespace

void KnnClassifier::fit(const Dataset& data) {
  ILC_CHECK(data.size() > 0);
  train_ = data;
  num_classes_ = data.num_classes;
}

std::vector<double> KnnClassifier::predict_proba(
    const std::vector<double>& x) const {
  ILC_CHECK(train_.size() > 0);
  const std::size_t k = std::min<std::size_t>(k_, train_.size());
  // Partial sort of indices by distance; ties by index for determinism.
  std::vector<std::size_t> idx(train_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      const double da = dist2(x, train_.x[a]);
                      const double db = dist2(x, train_.x[b]);
                      return da != db ? da < db : a < b;
                    });
  std::vector<double> votes(num_classes_, 0.0);
  // Nearer neighbours get slightly more weight so ties resolve sensibly.
  for (std::size_t r = 0; r < k; ++r)
    votes[train_.y[idx[r]]] += 1.0 + 1e-6 * static_cast<double>(k - r);
  double total = 0.0;
  for (double v : votes) total += v;
  for (double& v : votes) v /= total;
  return votes;
}

int KnnClassifier::predict(const std::vector<double>& x) const {
  const auto p = predict_proba(x);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

}  // namespace ilc::ml
