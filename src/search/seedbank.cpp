#include "search/seedbank.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "ml/kmeans.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace ilc::search {

namespace {

obs::Counter& c_estimator_skipped() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.estimator.skipped");
  return c;
}

// Seeds each cluster keeps, best first.
constexpr std::size_t kSeedsPerCluster = 8;
// Share of each program's sequence records (best-first) contributed as
// seed candidates. At least one record always contributes.
constexpr double kTopFraction = 0.25;
// RNG seed for k-means++ initialization.
constexpr std::uint64_t kKmeansSeed = 2008;
// Minimum training rows before a cluster's estimator switches on.
constexpr std::size_t kMinEstimatorRows = 8;

}  // namespace

void PerfEstimator::fit(const std::vector<std::vector<opt::PassId>>& seqs,
                        const std::vector<double>& rel_cycles,
                        std::size_t min_rows) {
  ILC_CHECK(seqs.size() == rel_cycles.size());
  ok_ = false;
  if (seqs.size() < min_rows) return;
  ml::RegressionData data;
  for (std::size_t i = 0; i < seqs.size(); ++i)
    data.add(encode(seqs[i]), rel_cycles[i]);
  model_.fit(data);
  ok_ = true;
}

double PerfEstimator::predict(const std::vector<opt::PassId>& seq) const {
  ILC_CHECK(ok_);
  return model_.predict(encode(seq));
}

std::vector<std::size_t> PerfEstimator::keep_best(
    const std::vector<std::vector<opt::PassId>>& seqs,
    std::size_t want) const {
  std::vector<std::size_t> idx(seqs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  if (seqs.size() <= want) return idx;
  std::vector<double> pred(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) pred[i] = predict(seqs[i]);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return pred[a] < pred[b];
  });
  idx.resize(want);
  std::sort(idx.begin(), idx.end());
  c_estimator_skipped().add(seqs.size() - want);
  return idx;
}

std::vector<double> PerfEstimator::encode(
    const std::vector<opt::PassId>& seq) {
  // Pass-count histogram + one-hot of the leading pass: order-insensitive
  // bulk plus a cheap positional signal. Fixed width regardless of
  // sequence length, so one model serves any space.
  std::vector<double> x(2 * opt::kNumPasses, 0.0);
  for (opt::PassId p : seq) x[static_cast<std::size_t>(p)] += 1.0;
  if (!seq.empty())
    x[opt::kNumPasses + static_cast<std::size_t>(seq.front())] = 1.0;
  return x;
}

SeedBank::SeedBank(const kb::KnowledgeBase& kb, const SequenceSpace& space,
                   SeedBankOptions opts) {
  // Gather per-program sequence records (insertion order preserved).
  struct ProgramData {
    std::vector<double> features;
    // (cycles, seq) for every sequence record of the program.
    std::vector<std::pair<std::uint64_t, std::vector<opt::PassId>>> runs;
    std::uint64_t baseline = 0;  // max observed cycles, the cold reference
  };
  std::vector<std::string> order;
  std::map<std::string, ProgramData> by_program;
  for (const auto& rec : kb.records()) {
    if (rec.kind != "sequence") continue;
    if (!opts.machine.empty() && rec.machine != opts.machine) continue;
    if (rec.program == opts.exclude_program) continue;
    auto seq = sequence_from_string(rec.config);
    if (!space.valid(seq)) continue;
    auto it = by_program.find(rec.program);
    if (it == by_program.end()) {
      if (rec.static_features.empty()) continue;
      order.push_back(rec.program);
      it = by_program.emplace(rec.program, ProgramData{}).first;
      it->second.features = rec.static_features;
    }
    it->second.runs.emplace_back(rec.cycles, std::move(seq));
    it->second.baseline = std::max(it->second.baseline, rec.cycles);
  }
  num_programs_ = order.size();
  if (order.empty()) return;

  // Normalize feature rows and cluster the programs.
  std::vector<std::vector<double>> rows;
  rows.reserve(order.size());
  std::vector<std::vector<double>> raw;
  for (const auto& name : order) raw.push_back(by_program[name].features);
  scaler_.fit(raw);
  for (const auto& r : raw) rows.push_back(scaler_.transform(r));

  support::Rng rng(kKmeansSeed);
  const auto km = ml::kmeans(rows, std::max(1u, opts.clusters), rng);
  centroids_ = km.centroids;
  clusters_.resize(centroids_.size());

  // Per cluster: pool the member programs' top sequences (by relative
  // cycles), dedupe, keep the best kSeedsPerCluster; fit the estimator
  // on *all* member runs.
  for (std::size_t ci = 0; ci < clusters_.size(); ++ci) {
    std::vector<std::vector<opt::PassId>> est_seqs;
    std::vector<double> est_rel;
    std::vector<std::pair<double, std::vector<opt::PassId>>> pool;
    for (std::size_t pi = 0; pi < order.size(); ++pi) {
      if (static_cast<std::size_t>(km.assignment[pi]) != ci) continue;
      auto& pd = by_program[order[pi]];
      const double base =
          pd.baseline > 0 ? static_cast<double>(pd.baseline) : 1.0;
      auto runs = pd.runs;
      std::stable_sort(runs.begin(), runs.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      const std::size_t take = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(runs.size()) * kTopFraction));
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const double rel = static_cast<double>(runs[i].first) / base;
        est_seqs.push_back(runs[i].second);
        est_rel.push_back(rel);
        if (i < take) pool.emplace_back(rel, runs[i].second);
      }
    }
    std::stable_sort(pool.begin(), pool.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first != b.first) return a.first < b.first;
                       return a.second < b.second;
                     });
    std::set<std::vector<opt::PassId>> seen;
    for (auto& entry : pool) {
      if (clusters_[ci].seeds.size() >= kSeedsPerCluster) break;
      if (!seen.insert(entry.second).second) continue;
      clusters_[ci].seeds.push_back(std::move(entry));
    }
    clusters_[ci].estimator.fit(est_seqs, est_rel, kMinEstimatorRows);
  }
}

std::size_t SeedBank::assign(
    const std::vector<double>& static_features) const {
  ILC_CHECK(!clusters_.empty());
  return ml::nearest_centroid(centroids_, scaler_.transform(static_features));
}

std::vector<std::vector<opt::PassId>> SeedBank::seeds_for(
    const std::vector<double>& static_features, std::size_t max_n) const {
  std::vector<std::vector<opt::PassId>> out;
  if (clusters_.empty()) return out;
  const auto& cluster = clusters_[assign(static_features)];
  for (const auto& [rel, seq] : cluster.seeds) {
    if (out.size() >= max_n) break;
    out.push_back(seq);
  }
  return out;
}

const PerfEstimator* SeedBank::estimator_for(
    const std::vector<double>& static_features) const {
  if (clusters_.empty()) return nullptr;
  const auto& cluster = clusters_[assign(static_features)];
  return cluster.estimator.ok() ? &cluster.estimator : nullptr;
}

Seeding SeedBank::seeding_for(const std::vector<double>& static_features,
                              std::size_t max_n) const {
  Seeding s;
  if (clusters_.empty()) return s;
  s.seeds = seeds_for(static_features, max_n);
  s.estimator = estimator_for(static_features);
  return s;
}

}  // namespace ilc::search
