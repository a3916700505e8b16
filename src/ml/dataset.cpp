#include "ml/ml.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace ilc::ml {

void Dataset::add(std::vector<double> row, int label) {
  ILC_CHECK(label >= 0);
  ILC_CHECK(x.empty() || row.size() == x[0].size());
  x.push_back(std::move(row));
  y.push_back(label);
  num_classes = std::max(num_classes, label + 1);
}

std::pair<Dataset, Dataset> Dataset::split_by_group(
    const Dataset& d, const std::vector<int>& groups, int g) {
  ILC_CHECK(groups.size() == d.x.size());
  Dataset train, test;
  train.num_classes = test.num_classes = d.num_classes;
  for (std::size_t i = 0; i < d.x.size(); ++i) {
    Dataset& dst = groups[i] == g ? test : train;
    dst.x.push_back(d.x[i]);
    dst.y.push_back(d.y[i]);
  }
  return {train, test};
}

std::vector<double> Classifier::predict_proba(
    const std::vector<double>& x) const {
  std::vector<double> p(num_classes_, 0.0);
  const int cls = predict(x);
  if (cls >= 0 && cls < num_classes_) p[cls] = 1.0;
  return p;
}

}  // namespace ilc::ml
