// Regression models for performance prediction (paper Section III-C /
// the CASES'06 "automatic performance model construction" line of work
// the conclusion cites): ridge regression (closed form via Gaussian
// elimination on the normal equations) and distance-weighted k-NN
// regression. Deterministic, dependency-free.
#pragma once

#include <string>
#include <vector>

namespace ilc::ml {

struct RegressionData {
  std::vector<std::vector<double>> x;
  std::vector<double> y;

  std::size_t size() const { return x.size(); }
  std::size_t dim() const { return x.empty() ? 0 : x[0].size(); }
  void add(std::vector<double> row, double target);
};

class Regressor {
 public:
  virtual ~Regressor() = default;
  virtual void fit(const RegressionData& data) = 0;
  virtual double predict(const std::vector<double>& x) const = 0;
  virtual std::string name() const = 0;
};

/// Linear least squares with L2 regularization, solved in closed form.
class RidgeRegression : public Regressor {
 public:
  explicit RidgeRegression(double lambda = 1e-3) : lambda_(lambda) {}
  void fit(const RegressionData& data) override;
  double predict(const std::vector<double>& x) const override;
  std::string name() const override { return "ridge"; }
  const std::vector<double>& weights() const { return w_; }  // last = bias

 private:
  double lambda_;
  std::vector<double> w_;
};

/// Inverse-distance-weighted k-nearest-neighbour regression.
class KnnRegressor : public Regressor {
 public:
  explicit KnnRegressor(unsigned k = 3) : k_(k) {}
  void fit(const RegressionData& data) override;
  double predict(const std::vector<double>& x) const override;
  std::string name() const override { return "knn-reg"; }

 private:
  unsigned k_;
  RegressionData train_;
};

// --- evaluation ------------------------------------------------------

/// Spearman rank correlation between two equal-length vectors — the
/// design-space metric: a model that ranks configurations correctly is
/// useful even when its absolute estimates are off (exactly the paper's
/// relative-accuracy argument).
double spearman(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace ilc::ml
