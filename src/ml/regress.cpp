#include "ml/regress.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace ilc::ml {

void RegressionData::add(std::vector<double> row, double target) {
  ILC_CHECK(x.empty() || row.size() == x[0].size());
  x.push_back(std::move(row));
  y.push_back(target);
}

void RidgeRegression::fit(const RegressionData& data) {
  ILC_CHECK(data.size() > 0);
  const std::size_t d = data.dim() + 1;  // + bias column
  // Normal equations: (X'X + lambda I) w = X'y.
  std::vector<std::vector<double>> a(d, std::vector<double>(d, 0.0));
  std::vector<double> b(d, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::vector<double> row = data.x[i];
    row.push_back(1.0);
    for (std::size_t p = 0; p < d; ++p) {
      for (std::size_t q = 0; q < d; ++q) a[p][q] += row[p] * row[q];
      b[p] += row[p] * data.y[i];
    }
  }
  for (std::size_t p = 0; p + 1 < d; ++p) a[p][p] += lambda_;  // no bias reg

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < d; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < d; ++r)
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double diag = a[col][col];
    ILC_CHECK_MSG(std::fabs(diag) > 1e-12, "singular normal equations");
    for (std::size_t r = 0; r < d; ++r) {
      if (r == col) continue;
      const double factor = a[r][col] / diag;
      for (std::size_t c = col; c < d; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  w_.assign(d, 0.0);
  for (std::size_t p = 0; p < d; ++p) w_[p] = b[p] / a[p][p];
}

double RidgeRegression::predict(const std::vector<double>& x) const {
  ILC_CHECK(w_.size() == x.size() + 1);
  double out = w_.back();
  for (std::size_t j = 0; j < x.size(); ++j) out += w_[j] * x[j];
  return out;
}

void KnnRegressor::fit(const RegressionData& data) {
  ILC_CHECK(data.size() > 0);
  train_ = data;
}

double KnnRegressor::predict(const std::vector<double>& x) const {
  ILC_CHECK(train_.size() > 0);
  const std::size_t k = std::min<std::size_t>(k_, train_.size());
  std::vector<std::pair<double, std::size_t>> by_dist;
  for (std::size_t i = 0; i < train_.size(); ++i) {
    double d2 = 0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double diff = x[j] - train_.x[i][j];
      d2 += diff * diff;
    }
    by_dist.emplace_back(d2, i);
  }
  std::partial_sort(by_dist.begin(), by_dist.begin() + static_cast<long>(k),
                    by_dist.end());
  double num = 0, den = 0;
  for (std::size_t r = 0; r < k; ++r) {
    const double w = 1.0 / (std::sqrt(by_dist[r].first) + 1e-9);
    num += w * train_.y[by_dist[r].second];
    den += w;
  }
  return num / den;
}

namespace {

std::vector<double> ranks(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> r(v.size());
  for (std::size_t pos = 0; pos < order.size();) {
    std::size_t end = pos;
    while (end + 1 < order.size() && v[order[end + 1]] == v[order[pos]])
      ++end;
    const double avg = (static_cast<double>(pos) + static_cast<double>(end)) /
                           2.0 + 1.0;  // average rank for ties
    for (std::size_t k = pos; k <= end; ++k) r[order[k]] = avg;
    pos = end + 1;
  }
  return r;
}

}  // namespace

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  ILC_CHECK(a.size() == b.size());
  ILC_CHECK(a.size() >= 2);
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ma += ra[i];
    mb += rb[i];
  }
  ma /= static_cast<double>(ra.size());
  mb /= static_cast<double>(rb.size());
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  if (va < 1e-12 || vb < 1e-12) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace ilc::ml
