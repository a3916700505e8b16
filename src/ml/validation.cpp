#include "ml/ml.hpp"

#include "support/assert.hpp"

namespace ilc::ml {

double accuracy(const Classifier& clf, const Dataset& test) {
  ILC_CHECK(test.size() > 0);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    if (clf.predict(test.x[i]) == test.y[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

std::vector<double> logo_accuracy(const ClassifierFactory& make,
                                  const Dataset& data,
                                  const std::vector<int>& groups,
                                  int num_groups) {
  std::vector<double> out;
  for (int g = 0; g < num_groups; ++g) {
    auto [train, test] = Dataset::split_by_group(data, groups, g);
    if (test.size() == 0 || train.size() == 0) {
      out.push_back(0.0);
      continue;
    }
    auto clf = make();
    clf->fit(train);
    out.push_back(accuracy(*clf, test));
  }
  return out;
}

}  // namespace ilc::ml
