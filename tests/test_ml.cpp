// ML library tests: each classifier learns separable synthetic problems,
// probability outputs are sane, and the validation protocols behave.
#include <gtest/gtest.h>

#include "ml/kmeans.hpp"
#include "ml/ml.hpp"
#include "support/rng.hpp"

namespace {

using namespace ilc::ml;
using ilc::support::Rng;

/// Two Gaussian blobs in 2-D, linearly separable.
Dataset blobs(std::uint64_t seed, int per_class, double sep = 3.0) {
  Rng rng(seed);
  Dataset d;
  for (int c = 0; c < 2; ++c)
    for (int i = 0; i < per_class; ++i) {
      const double cx = c == 0 ? -sep / 2 : sep / 2;
      d.add({cx + rng.next_double() - 0.5, rng.next_double() - 0.5}, c);
    }
  return d;
}

/// XOR-ish problem: not linearly separable, tree-friendly.
Dataset xor_data(std::uint64_t seed, int n) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_double() * 2 - 1;
    const double y = rng.next_double() * 2 - 1;
    d.add({x, y}, (x > 0) != (y > 0) ? 1 : 0);
  }
  return d;
}

Dataset three_class(std::uint64_t seed, int per_class) {
  Rng rng(seed);
  Dataset d;
  const double cx[3] = {-4, 0, 4};
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < per_class; ++i)
      d.add({cx[c] + rng.next_double() - 0.5, rng.next_double()}, c);
  return d;
}

template <typename Clf>
void expect_learns_blobs(Clf&& clf, double min_acc) {
  const Dataset train = blobs(1, 100);
  const Dataset test = blobs(2, 50);
  clf.fit(train);
  EXPECT_GE(accuracy(clf, test), min_acc) << clf.name();
}

TEST(Knn, LearnsBlobs) { expect_learns_blobs(KnnClassifier(3), 0.98); }
TEST(LogReg, LearnsBlobs) { expect_learns_blobs(LogisticRegression(), 0.98); }
TEST(DTree, LearnsBlobs) { expect_learns_blobs(DecisionTree(), 0.95); }
TEST(NBayes, LearnsBlobs) { expect_learns_blobs(NaiveBayes(), 0.98); }

TEST(DTree, LearnsXorWhereLinearFails) {
  const Dataset train = xor_data(3, 400);
  const Dataset test = xor_data(4, 200);
  DecisionTree tree;
  tree.fit(train);
  EXPECT_GE(accuracy(tree, test), 0.9);
  LogisticRegression lr;
  lr.fit(train);
  EXPECT_LT(accuracy(lr, test), 0.75);  // linear model can't do XOR
}

TEST(Knn, MulticlassAndNearest) {
  const Dataset train = three_class(5, 40);
  KnnClassifier knn(3);
  knn.fit(train);
  EXPECT_EQ(knn.predict({-4, 0.5}), 0);
  EXPECT_EQ(knn.predict({0, 0.5}), 1);
  EXPECT_EQ(knn.predict({4, 0.5}), 2);
}

TEST(LogReg, MulticlassOneVsRest) {
  const Dataset train = three_class(6, 60);
  LogisticRegression lr;
  lr.fit(train);
  EXPECT_GE(accuracy(lr, train), 0.95);
}

TEST(ProbaOutputs, SumToOne) {
  const Dataset train = three_class(7, 30);
  std::vector<std::unique_ptr<Classifier>> clfs;
  clfs.push_back(std::make_unique<KnnClassifier>(3));
  clfs.push_back(std::make_unique<LogisticRegression>());
  clfs.push_back(std::make_unique<DecisionTree>());
  clfs.push_back(std::make_unique<NaiveBayes>());
  for (auto& clf : clfs) {
    clf->fit(train);
    const auto p = clf->predict_proba({1.0, 0.3});
    ASSERT_EQ(p.size(), 3u) << clf->name();
    double total = 0;
    for (double v : p) {
      EXPECT_GE(v, 0.0) << clf->name();
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << clf->name();
  }
}

TEST(DTree, RespectsDepthLimit) {
  DecisionTree::Config cfg;
  cfg.max_depth = 1;
  DecisionTree stump(cfg);
  stump.fit(xor_data(8, 200));
  EXPECT_LE(stump.node_count(), 3u);  // root + two leaves
}

TEST(Dataset, SplitByGroup) {
  Dataset d;
  d.add({0}, 0);
  d.add({1}, 1);
  d.add({2}, 0);
  const std::vector<int> groups = {0, 1, 0};
  auto [train, test] = Dataset::split_by_group(d, groups, 0);
  EXPECT_EQ(test.size(), 2u);
  EXPECT_EQ(train.size(), 1u);
}

TEST(Validation, LogoCoversEachGroup) {
  Dataset d = blobs(11, 30);
  std::vector<int> groups(d.size());
  for (std::size_t i = 0; i < groups.size(); ++i)
    groups[i] = static_cast<int>(i % 3);
  const auto accs = logo_accuracy(
      [] { return std::make_unique<NaiveBayes>(); }, d, groups, 3);
  ASSERT_EQ(accs.size(), 3u);
  for (double a : accs) EXPECT_GE(a, 0.9);
}

TEST(Determinism, SameDataSameModel) {
  const Dataset d = three_class(13, 25);
  LogisticRegression a, b;
  a.fit(d);
  b.fit(d);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x = {static_cast<double>(i) - 10, 0.5};
    EXPECT_EQ(a.predict(x), b.predict(x));
  }
}

// --- k-means --------------------------------------------------------------

std::vector<std::vector<double>> two_blobs(unsigned per_blob) {
  std::vector<std::vector<double>> rows;
  Rng rng(29);
  for (unsigned i = 0; i < per_blob; ++i)
    rows.push_back({10.0 + rng.next_double(), 10.0 + rng.next_double()});
  for (unsigned i = 0; i < per_blob; ++i)
    rows.push_back({-10.0 + rng.next_double(), -10.0 + rng.next_double()});
  return rows;
}

TEST(KMeans, SeparatesWellSeparatedBlobs) {
  const auto rows = two_blobs(20);
  Rng rng(7);
  const auto km = kmeans(rows, 2, rng);
  ASSERT_EQ(km.centroids.size(), 2u);
  ASSERT_EQ(km.assignment.size(), rows.size());
  // Every member of a blob lands in the same cluster; the two blobs in
  // different clusters.
  for (unsigned i = 1; i < 20; ++i)
    EXPECT_EQ(km.assignment[i], km.assignment[0]);
  for (unsigned i = 21; i < 40; ++i)
    EXPECT_EQ(km.assignment[i], km.assignment[20]);
  EXPECT_NE(km.assignment[0], km.assignment[20]);
  // Inertia of a tight blob clustering is small relative to the spread.
  EXPECT_LT(km.inertia, 40.0);
}

TEST(KMeans, NearestCentroidBreaksTiesTowardLowestIndex) {
  const std::vector<std::vector<double>> centroids = {{1.0}, {3.0}, {1.0}};
  EXPECT_EQ(nearest_centroid(centroids, {1.0}), 0u);  // exact tie: 0 wins
  EXPECT_EQ(nearest_centroid(centroids, {2.0}), 0u);  // equidistant: 0 wins
  EXPECT_EQ(nearest_centroid(centroids, {2.9}), 1u);
}

TEST(KMeans, SameSeedSameClustering) {
  const auto rows = two_blobs(15);
  Rng a(123), b(123);
  const auto ka = kmeans(rows, 3, a);
  const auto kb = kmeans(rows, 3, b);
  EXPECT_EQ(ka.assignment, kb.assignment);
  EXPECT_EQ(ka.centroids, kb.centroids);
  EXPECT_EQ(ka.inertia, kb.inertia);
}

TEST(KMeans, ClampsKToRowCountAndHandlesDuplicates) {
  const std::vector<std::vector<double>> rows = {{1.0, 1.0}, {1.0, 1.0},
                                                 {2.0, 2.0}};
  Rng rng(5);
  const auto km = kmeans(rows, 8, rng);
  EXPECT_EQ(km.centroids.size(), 3u);  // k clamped to n
  EXPECT_DOUBLE_EQ(km.inertia, 0.0);   // every row sits on a centroid
}

TEST(KMeans, EmptyInputYieldsEmptyResult) {
  Rng rng(1);
  const auto km = kmeans({}, 4, rng);
  EXPECT_TRUE(km.centroids.empty());
  EXPECT_TRUE(km.assignment.empty());
}

}  // namespace
