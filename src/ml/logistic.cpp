#include <algorithm>
#include <cmath>

#include "ml/ml.hpp"
#include "support/assert.hpp"

namespace ilc::ml {

namespace {

// Gradient-descent settings: step size, L2 penalty, full passes.
constexpr double kLearningRate = 0.1;
constexpr double kL2 = 1e-3;
constexpr unsigned kEpochs = 300;

double sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

void LogisticRegression::fit(const Dataset& data) {
  ILC_CHECK(data.size() > 0);
  num_classes_ = data.num_classes;
  const std::size_t dim = data.dim();
  const std::size_t n = data.size();
  w_.assign(num_classes_, std::vector<double>(dim, 0.0));
  b_.assign(num_classes_, 0.0);

  // One-vs-rest batch gradient descent.
  for (int cls = 0; cls < num_classes_; ++cls) {
    auto& w = w_[cls];
    double& b = b_[cls];
    for (unsigned epoch = 0; epoch < kEpochs; ++epoch) {
      std::vector<double> grad(dim, 0.0);
      double grad_b = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double z = b;
        for (std::size_t j = 0; j < dim; ++j) z += w[j] * data.x[i][j];
        const double target = data.y[i] == cls ? 1.0 : 0.0;
        const double err = sigmoid(z) - target;
        for (std::size_t j = 0; j < dim; ++j) grad[j] += err * data.x[i][j];
        grad_b += err;
      }
      const double scale = kLearningRate / static_cast<double>(n);
      for (std::size_t j = 0; j < dim; ++j)
        w[j] -= scale * (grad[j] + kL2 * w[j] * static_cast<double>(n));
      b -= scale * grad_b;
    }
  }
}

std::vector<double> LogisticRegression::scores(
    const std::vector<double>& x) const {
  ILC_CHECK(!w_.empty());
  std::vector<double> out(num_classes_, 0.0);
  for (int cls = 0; cls < num_classes_; ++cls) {
    double z = b_[cls];
    for (std::size_t j = 0; j < x.size(); ++j) z += w_[cls][j] * x[j];
    out[cls] = z;
  }
  return out;
}

std::vector<double> LogisticRegression::predict_proba(
    const std::vector<double>& x) const {
  std::vector<double> p = scores(x);
  for (double& z : p) z = sigmoid(z);
  double total = 0.0;
  for (double v : p) total += v;
  if (total > 0)
    for (double& v : p) v /= total;
  return p;
}

int LogisticRegression::predict(const std::vector<double>& x) const {
  const auto s = scores(x);
  return static_cast<int>(std::max_element(s.begin(), s.end()) - s.begin());
}

}  // namespace ilc::ml
