// The machine-learning toolbox of the intelligent compiler (paper Section
// III-F): "simple techniques such as logistic regression and nearest
// neighbor classification" plus decision trees and naive Bayes, under a
// single Classifier interface, with leave-one-out cross-validation as the
// paper's recommended evaluation protocol (Section II). Regression models
// (performance prediction) live in ml/regress.hpp.
//
// Everything is deterministic: no RNG is used during training.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ilc::ml {

/// Supervised dataset: dense feature rows with integer class labels in
/// [0, num_classes).
struct Dataset {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  int num_classes = 0;

  std::size_t size() const { return x.size(); }
  std::size_t dim() const { return x.empty() ? 0 : x[0].size(); }
  void add(std::vector<double> row, int label);
  /// Rows whose group id != g / == g (for leave-one-group-out).
  static std::pair<Dataset, Dataset> split_by_group(
      const Dataset& d, const std::vector<int>& groups, int g);
};

class Classifier {
 public:
  virtual ~Classifier() = default;
  virtual void fit(const Dataset& data) = 0;
  virtual int predict(const std::vector<double>& x) const = 0;
  /// Per-class probabilities; default is a one-hot of predict().
  virtual std::vector<double> predict_proba(const std::vector<double>& x) const;
  virtual std::string name() const = 0;

 protected:
  int num_classes_ = 0;
};

/// k-nearest-neighbour with majority vote; ties break toward the nearer
/// neighbour's class. Features should be pre-normalized by the caller.
class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(unsigned k = 3) : k_(k) {}
  void fit(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;
  std::vector<double> predict_proba(const std::vector<double>& x) const override;
  std::string name() const override { return "knn" + std::to_string(k_); }

 private:
  unsigned k_;
  Dataset train_;
};

/// Multinomial logistic regression (one-vs-rest), batch gradient descent
/// with L2 regularization.
class LogisticRegression : public Classifier {
 public:
  void fit(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;
  std::vector<double> predict_proba(const std::vector<double>& x) const override;
  std::string name() const override { return "logreg"; }

  /// Raw per-class decision scores w·x + b (pre-sigmoid).
  std::vector<double> scores(const std::vector<double>& x) const;

 private:
  std::vector<std::vector<double>> w_;  // [class][dim]
  std::vector<double> b_;               // [class]
};

/// CART-style binary decision tree with Gini impurity and threshold
/// splits.
class DecisionTree : public Classifier {
 public:
  struct Config {
    unsigned max_depth = 6;
    unsigned min_leaf = 2;
  };
  DecisionTree() = default;
  explicit DecisionTree(Config cfg) : cfg_(cfg) {}
  void fit(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;
  std::vector<double> predict_proba(const std::vector<double>& x) const override;
  std::string name() const override { return "dtree"; }
  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    int feature = -1;      // -1 = leaf
    double threshold = 0;  // go left if x[feature] <= threshold
    int left = -1, right = -1;
    std::vector<double> class_probs;
  };
  int build(const Dataset& data, const std::vector<std::size_t>& rows,
            unsigned depth);
  Config cfg_;
  std::vector<Node> nodes_;
};

/// Gaussian naive Bayes.
class NaiveBayes : public Classifier {
 public:
  void fit(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;
  std::vector<double> predict_proba(const std::vector<double>& x) const override;
  std::string name() const override { return "nbayes"; }

 private:
  std::vector<double> prior_;               // [class]
  std::vector<std::vector<double>> mean_;   // [class][dim]
  std::vector<std::vector<double>> var_;    // [class][dim]
};

// --- validation -----------------------------------------------------------

using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

/// Fraction of rows classified correctly.
double accuracy(const Classifier& clf, const Dataset& test);

/// Leave-one-group-out accuracy per group (e.g. group = benchmark id, as
/// in "train on N-1 benchmarks, test on the one left out").
std::vector<double> logo_accuracy(const ClassifierFactory& make,
                                  const Dataset& data,
                                  const std::vector<int>& groups,
                                  int num_groups);

}  // namespace ilc::ml
