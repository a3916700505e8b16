// The intelligent optimization controller (paper Section III-A) and the
// performance-prediction models it consults (Section III-C):
//
//  * CounterModel — the PCModel of Figs. 3/4 (after Cavazos et al.
//    CGO'07): characterizes a program by its -O0 performance-counter
//    signature, finds the nearest previously-seen program in the
//    knowledge base, and predicts that program's best optimization
//    setting. One-shot: no search on the new program.
//
//  * IntelligentController — iterative refinement via FOCUSSED search,
//    when the framework decides on-target evaluations are worthwhile.
//    One-shot flag prediction is a CounterModel's predict().
#pragma once

#include <string>
#include <vector>

#include "features/features.hpp"
#include "kb/knowledge_base.hpp"
#include "opt/pipelines.hpp"
#include "search/evaluator.hpp"
#include "search/focused.hpp"
#include "search/strategies.hpp"

namespace ilc::ctrl {

/// One-shot counter-signature model. Trained from KB "profile" records
/// (the program's -O0 dynamic features) labeled with the best "flags"
/// record found for that program.
class CounterModel {
 public:
  /// Train from all programs in the KB except `exclude` (leave-one-out).
  CounterModel(const kb::KnowledgeBase& base, const std::string& exclude,
               const std::string& machine);

  /// Predict the optimization setting for a program with the given -O0
  /// dynamic-feature signature.
  opt::OptFlags predict(const std::vector<double>& dynamic_features) const;

  /// The training program whose model was used for the last predict().
  const std::string& nearest_program() const { return nearest_; }
  std::size_t training_programs() const { return rows_.size(); }

 private:
  feat::Scaler scaler_;
  std::vector<std::vector<double>> rows_;     // scaled signatures
  std::vector<opt::OptFlags> best_flags_;     // label per row
  std::vector<std::string> program_names_;
  mutable std::string nearest_;
};

/// Build the FOCUSSED sequence model from KB "sequence" records, training
/// on every program except `exclude`. `top_fraction` selects which share
/// of each program's tried sequences count as "good" evidence.
search::FocusedModel build_focused_model(
    const kb::KnowledgeBase& base, const std::string& exclude,
    const std::string& machine, search::SequenceSpace space,
    double top_fraction = 0.1,
    search::FocusedKind kind = search::FocusedKind::Markov);

/// The controller: given a program and a knowledge base, produce an
/// optimization decision.
class IntelligentController {
 public:
  IntelligentController(const kb::KnowledgeBase& base, std::string machine)
      : kb_(base), machine_(std::move(machine)) {}

  /// Iterative compilation: FOCUSSED search with a small budget; returns
  /// the search trace (best sequence is trace.best_seq).
  search::SearchTrace iterative(search::Evaluator& eval,
                                const std::vector<double>& static_features,
                                const std::string& exclude_program,
                                unsigned budget, support::Rng& rng) const;

 private:
  const kb::KnowledgeBase& kb_;
  std::string machine_;
};

}  // namespace ilc::ctrl
