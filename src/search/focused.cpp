#include "search/focused.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace ilc::search {

std::size_t FocusedModel::pass_index(opt::PassId id) const {
  for (std::size_t i = 0; i < space_.passes.size(); ++i)
    if (space_.passes[i] == id) return i;
  ILC_CHECK_MSG(false, "pass not in space");
  return 0;
}

FocusedModel::FocusedModel(std::vector<ProgramSearchData> training,
                           SequenceSpace space, FocusedKind kind,
                           unsigned mixture)
    : space_(std::move(space)), kind_(kind), mixture_(mixture) {
  ILC_CHECK(!training.empty());
  ILC_CHECK(mixture_ >= 1);
  const std::size_t np = space_.passes.size();

  std::vector<std::vector<double>> feature_rows;
  for (const auto& t : training) feature_rows.push_back(t.features);
  scaler_.fit(feature_rows);

  for (const auto& t : training) {
    ProgramModel m;
    m.program = t.program;
    m.scaled_features = scaler_.transform(t.features);
    // Laplace-smoothed counts.
    m.iid.assign(np, 1.0);
    m.markov.assign(np, std::vector<double>(np, 0.5));
    for (const auto& seq : t.good_seqs) {
      for (std::size_t i = 0; i < seq.size(); ++i) {
        m.iid[pass_index(seq[i])] += 1.0;
        if (i > 0)
          m.markov[pass_index(seq[i - 1])][pass_index(seq[i])] += 1.0;
      }
    }
    // Normalize.
    double total = 0.0;
    for (double v : m.iid) total += v;
    for (double& v : m.iid) v /= total;
    for (auto& row : m.markov) {
      double rt = 0.0;
      for (double v : row) rt += v;
      for (double& v : row) v /= rt;
    }
    models_.push_back(std::move(m));
  }
}

void FocusedModel::set_target(const std::vector<double>& features) {
  const auto scaled = scaler_.transform(features);
  std::vector<std::pair<double, std::size_t>> by_distance;
  for (std::size_t i = 0; i < models_.size(); ++i)
    by_distance.emplace_back(
        feat::euclidean(scaled, models_[i].scaled_features), i);
  std::sort(by_distance.begin(), by_distance.end());

  active_.clear();
  const std::size_t k =
      std::min<std::size_t>(mixture_, by_distance.size());
  double total = 0.0;
  for (std::size_t r = 0; r < k; ++r) {
    const double w = 1.0 / (by_distance[r].first + 1e-6);
    active_.emplace_back(by_distance[r].second, w);
    total += w;
  }
  for (auto& [idx, w] : active_) w /= total;
  target_set_ = true;
}

const std::string& FocusedModel::selected_program() const {
  ILC_CHECK(target_set_);
  return models_[active_.front().first].program;
}

std::vector<opt::PassId> FocusedModel::sample(support::Rng& rng) const {
  ILC_CHECK(target_set_);
  // Draw the mixture component, then sample a sequence from it.
  std::vector<double> weights;
  for (const auto& [idx, w] : active_) weights.push_back(w);
  const ProgramModel& m = models_[active_[rng.next_weighted(weights)].first];
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<opt::PassId> seq;
    seq.reserve(space_.length);
    std::size_t prev = 0;
    for (unsigned i = 0; i < space_.length; ++i) {
      const std::vector<double>& dist =
          (i == 0 || kind_ == FocusedKind::Iid) ? m.iid : m.markov[prev];
      const std::size_t pick = rng.next_weighted(dist);
      seq.push_back(space_.passes[pick]);
      prev = pick;
    }
    if (space_.valid(seq)) return seq;
  }
  // Degenerate model (e.g. all mass on unroll passes): fall back to a
  // uniform valid sample rather than spinning.
  return space_.sample(rng);
}

double FocusedModel::component_log_prob(
    const ProgramModel& m, const std::vector<opt::PassId>& seq) const {
  double lp = 0.0;
  std::size_t prev = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::size_t idx = pass_index(seq[i]);
    const std::vector<double>& dist =
        (i == 0 || kind_ == FocusedKind::Iid) ? m.iid : m.markov[prev];
    lp += std::log(dist[idx]);
    prev = idx;
  }
  return lp;
}

double FocusedModel::log_prob(const std::vector<opt::PassId>& seq) const {
  ILC_CHECK(target_set_);
  double p = 0.0;
  for (const auto& [idx, w] : active_)
    p += w * std::exp(component_log_prob(models_[idx], seq));
  return std::log(std::max(p, 1e-300));
}

}  // namespace ilc::search
