// Clustered KB seeding (ROADMAP item 3, after GRACE's representation-
// aware clustering, PAPERS.md): group the knowledge base's programs by
// normalized static-feature vectors with k-means, remember each cluster's
// best-known pass sequences, and fit a per-cluster learned performance
// estimator. A new program is assigned to its nearest cluster by static
// features and inherits that cluster's seeds and estimator, so GA
// populations and random searches warm-start from configurations that
// worked on similar programs instead of cold uniform samples.
//
// Deterministic: clustering runs under a fixed Rng seed at construction;
// assignment, seed order, and estimator predictions are pure functions
// afterwards — seeded searches keep the fixed-seed bit-identical trace
// contract at any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "features/features.hpp"
#include "kb/knowledge_base.hpp"
#include "ml/regress.hpp"
#include "search/space.hpp"
#include "search/strategies.hpp"

namespace ilc::search {

/// Learned relative-cycles estimator over sequence encodings (pass-count
/// histogram + leading-pass one-hot, ridge regression). Predictions are
/// cycles relative to the program's unoptimized baseline, so models fit
/// on one cluster transfer across programs of different absolute scale.
class PerfEstimator {
 public:
  /// Fit from (sequence, relative-cycles) samples. The model only
  /// becomes usable (ok()) with at least `min_rows` samples.
  void fit(const std::vector<std::vector<opt::PassId>>& seqs,
           const std::vector<double>& rel_cycles, std::size_t min_rows = 8);

  bool ok() const { return ok_; }
  /// Predicted relative cycles; lower is better. Only valid when ok().
  double predict(const std::vector<opt::PassId>& seq) const;

  /// The prefilter of the seeded searches: indices, ascending, of the
  /// `want` sequences of `seqs` with the lowest prediction (on a tie the
  /// earlier one); the others count on `search.estimator.skipped`. Pure
  /// and RNG-free, so it never perturbs a fixed-seed run. Only valid when
  /// ok().
  std::vector<std::size_t> keep_best(
      const std::vector<std::vector<opt::PassId>>& seqs,
      std::size_t want) const;

  /// Fixed-width sequence encoding (exposed for tests).
  static std::vector<double> encode(const std::vector<opt::PassId>& seq);

 private:
  ml::RidgeRegression model_{1e-2};
  bool ok_ = false;
};

struct SeedBankOptions {
  unsigned clusters = 4;
  /// Restrict to records of this machine ("" = any).
  std::string machine;
  /// Drop this program's records entirely (leave-one-out benching).
  std::string exclude_program;
};

class SeedBank {
 public:
  SeedBank() = default;
  /// Build from the KB's "sequence" records: one feature row per program
  /// (its first sequence record's static features), k-means clustering,
  /// per-cluster merged seed lists and estimators.
  SeedBank(const kb::KnowledgeBase& kb, const SequenceSpace& space,
           SeedBankOptions opts = {});

  bool empty() const { return clusters_.empty(); }
  std::size_t num_clusters() const { return clusters_.size(); }
  std::size_t num_programs() const { return num_programs_; }

  /// Nearest cluster for a program's static features.
  std::size_t assign(const std::vector<double>& static_features) const;

  /// Best-known sequences of the assigned cluster, best-first, capped at
  /// `max_n`. Empty when the bank is empty.
  std::vector<std::vector<opt::PassId>> seeds_for(
      const std::vector<double>& static_features,
      std::size_t max_n = ~std::size_t{0}) const;

  /// The assigned cluster's estimator, or nullptr when it lacks data.
  const PerfEstimator* estimator_for(
      const std::vector<double>& static_features) const;

  /// Convenience: seeds + estimator bundled for the search strategies.
  Seeding seeding_for(const std::vector<double>& static_features,
                      std::size_t max_n = 8) const;

 private:
  struct Cluster {
    /// (relative cycles, sequence), sorted best-first, deduped.
    std::vector<std::pair<double, std::vector<opt::PassId>>> seeds;
    PerfEstimator estimator;
  };

  std::size_t num_programs_ = 0;
  feat::Scaler scaler_;
  std::vector<std::vector<double>> centroids_;
  std::vector<Cluster> clusters_;
};

}  // namespace ilc::search
