// The FOCUSSED search model (paper Section III-A, after Agakov et al.
// CGO'06): learn, from a knowledge base of prior searches on *other*
// programs, where the good regions of the sequence space lie, then bias
// sampling into those regions for a new program.
//
// Per training program we fit two generative models over its best
// sequences: an IID per-position distribution and a first-order Markov
// chain (both Laplace-smoothed). At prediction time the training program
// nearest in normalized static-feature space is selected (1-NN, as in the
// original paper) and its models drive sampling: a search draws its
// candidates from sample() through search::generator_search. log_prob()
// exposes the model density, which the Fig. 2a bench thresholds to draw
// the "predicted good region" contours.
#pragma once

#include <string>
#include <vector>

#include "features/features.hpp"
#include "search/space.hpp"
#include "support/rng.hpp"

namespace ilc::search {

/// Prior-search evidence for one training program.
struct ProgramSearchData {
  std::string program;
  std::vector<double> features;  // static features (unnormalized)
  std::vector<std::vector<opt::PassId>> good_seqs;  // its top sequences
};

enum class FocusedKind { Iid, Markov };

class FocusedModel {
 public:
  /// `mixture` = number of nearest training programs blended (inverse-
  /// distance weighted). 1 reproduces the original 1-NN model selection.
  FocusedModel(std::vector<ProgramSearchData> training, SequenceSpace space,
               FocusedKind kind = FocusedKind::Markov, unsigned mixture = 3);

  /// Select the per-program component models nearest to `features`.
  void set_target(const std::vector<double>& features);
  /// The nearest (highest-weight) training program.
  const std::string& selected_program() const;

  /// Sample a valid sequence from the selected model.
  std::vector<opt::PassId> sample(support::Rng& rng) const;

  /// Model log-density of a sequence under the selected program's model.
  double log_prob(const std::vector<opt::PassId>& seq) const;

  const SequenceSpace& space() const { return space_; }

 private:
  struct ProgramModel {
    std::string program;
    std::vector<double> scaled_features;
    std::vector<double> iid;                  // [pass] probabilities
    std::vector<std::vector<double>> markov;  // [prev][pass]
  };

  std::size_t pass_index(opt::PassId id) const;
  double component_log_prob(const ProgramModel& m,
                            const std::vector<opt::PassId>& seq) const;

  SequenceSpace space_;
  FocusedKind kind_;
  unsigned mixture_;
  feat::Scaler scaler_;
  std::vector<ProgramModel> models_;
  std::vector<std::pair<std::size_t, double>> active_;  // (model, weight)
  bool target_set_ = false;
};

}  // namespace ilc::search
