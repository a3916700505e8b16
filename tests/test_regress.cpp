// Regression-model tests: ridge recovers known linear coefficients, k-NN
// interpolates smooth surfaces, and the Spearman metric behaves.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/regress.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace {

using namespace ilc::ml;
using ilc::support::Rng;

RegressionData linear_data(std::uint64_t seed, int n, double noise) {
  // y = 3x0 - 2x1 + 5 (+ noise)
  Rng rng(seed);
  RegressionData d;
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.next_double() * 10 - 5;
    const double x1 = rng.next_double() * 10 - 5;
    const double eps = noise * (rng.next_double() - 0.5);
    d.add({x0, x1}, 3 * x0 - 2 * x1 + 5 + eps);
  }
  return d;
}

TEST(Ridge, RecoversExactLinearModel) {
  RidgeRegression model(1e-9);
  model.fit(linear_data(1, 200, 0.0));
  ASSERT_EQ(model.weights().size(), 3u);
  EXPECT_NEAR(model.weights()[0], 3.0, 1e-6);
  EXPECT_NEAR(model.weights()[1], -2.0, 1e-6);
  EXPECT_NEAR(model.weights()[2], 5.0, 1e-6);
  EXPECT_NEAR(model.predict({1.0, 1.0}), 6.0, 1e-6);
}

TEST(Ridge, RobustToNoise) {
  RidgeRegression model;
  model.fit(linear_data(2, 500, 1.0));
  EXPECT_NEAR(model.predict({2.0, -1.0}), 3 * 2 + 2 + 5, 0.3);
}

TEST(Ridge, RegularizationShrinksWeights) {
  const RegressionData d = linear_data(3, 50, 0.5);
  RidgeRegression weak(1e-6), strong(1e3);
  weak.fit(d);
  strong.fit(d);
  EXPECT_LT(std::fabs(strong.weights()[0]), std::fabs(weak.weights()[0]));
}

TEST(KnnReg, InterpolatesSmoothSurface) {
  // y = x^2 on a grid; prediction between grid points should be close.
  RegressionData d;
  for (int i = -10; i <= 10; ++i) {
    const double x = i;
    d.add({x}, x * x);
  }
  KnnRegressor model(2);
  model.fit(d);
  EXPECT_NEAR(model.predict({3.5}), 12.5, 1.0);  // between 9 and 16
  EXPECT_NEAR(model.predict({5.0}), 25.0, 1e-6);  // on a point
}

TEST(KnnReg, ExactMatchDominates) {
  RegressionData d;
  d.add({0.0}, 1.0);
  d.add({10.0}, 2.0);
  d.add({20.0}, 3.0);
  KnnRegressor model(3);
  model.fit(d);
  EXPECT_NEAR(model.predict({10.0}), 2.0, 1e-6);
}

TEST(Metrics, SpearmanPerfectAndInverted) {
  const std::vector<double> a = {1, 2, 3, 4, 5};
  const std::vector<double> up = {10, 20, 30, 40, 50};
  const std::vector<double> down = {5, 4, 3, 2, 1};
  EXPECT_NEAR(spearman(a, up), 1.0, 1e-12);
  EXPECT_NEAR(spearman(a, down), -1.0, 1e-12);
}

TEST(Metrics, SpearmanIsRankBasedNotLinear) {
  // Monotone nonlinear relationship: rank correlation is still 1.
  std::vector<double> x, y;
  for (int i = 1; i <= 20; ++i) {
    x.push_back(i);
    y.push_back(std::exp(0.3 * i));
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Metrics, SpearmanHandlesTies) {
  const std::vector<double> a = {1, 2, 2, 3};
  const std::vector<double> b = {1, 2, 2, 3};
  EXPECT_NEAR(spearman(a, b), 1.0, 1e-12);
  const std::vector<double> c = {7, 7, 7, 7};  // constant: undefined -> 0
  EXPECT_EQ(spearman(a, c), 0.0);
}

}  // namespace
