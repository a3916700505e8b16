#include "controller/controller.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace ilc::ctrl {

CounterModel::CounterModel(const kb::KnowledgeBase& base,
                           const std::string& exclude,
                           const std::string& machine) {
  std::vector<std::vector<double>> raw_rows;
  for (const std::string& program : base.programs()) {
    if (program == exclude) continue;
    // Profile record: the -O0 counter signature.
    const kb::ExperimentRecord* profile = nullptr;
    for (const auto* r : base.for_program(program, "profile"))
      if (r->machine == machine) profile = r;
    const kb::ExperimentRecord* best = nullptr;
    for (const auto* r : base.for_program(program, "flags")) {
      if (r->machine != machine) continue;
      if (best == nullptr || r->cycles < best->cycles) best = r;
    }
    if (profile == nullptr || best == nullptr) continue;
    raw_rows.push_back(profile->dynamic_features);
    best_flags_.push_back(
        opt::OptFlags::decode(static_cast<std::uint32_t>(
            std::stoul(best->config))));
    program_names_.push_back(program);
  }
  ILC_CHECK_MSG(!raw_rows.empty(),
                "knowledge base has no usable profile+flags records");
  scaler_.fit(raw_rows);
  for (const auto& r : raw_rows) rows_.push_back(scaler_.transform(r));
}

opt::OptFlags CounterModel::predict(
    const std::vector<double>& dynamic_features) const {
  const auto x = scaler_.transform(dynamic_features);
  std::size_t best = 0;
  double best_d = feat::euclidean(x, rows_[0]);
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    const double d = feat::euclidean(x, rows_[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  nearest_ = program_names_[best];
  return best_flags_[best];
}

search::FocusedModel build_focused_model(const kb::KnowledgeBase& base,
                                         const std::string& exclude,
                                         const std::string& machine,
                                         search::SequenceSpace space,
                                         double top_fraction,
                                         search::FocusedKind kind) {
  ILC_CHECK(top_fraction > 0.0 && top_fraction <= 1.0);
  std::vector<search::ProgramSearchData> training;
  for (const std::string& program : base.programs()) {
    if (program == exclude) continue;
    auto recs = base.for_program(program, "sequence");
    recs.erase(std::remove_if(recs.begin(), recs.end(),
                              [&](const kb::ExperimentRecord* r) {
                                return r->machine != machine;
                              }),
               recs.end());
    if (recs.empty()) continue;
    std::sort(recs.begin(), recs.end(),
              [](const kb::ExperimentRecord* a,
                 const kb::ExperimentRecord* b) { return a->cycles < b->cycles; });
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(top_fraction *
                                    static_cast<double>(recs.size())));
    search::ProgramSearchData data;
    data.program = program;
    data.features = recs.front()->static_features;
    for (std::size_t i = 0; i < keep; ++i)
      data.good_seqs.push_back(search::sequence_from_string(recs[i]->config));
    training.push_back(std::move(data));
  }
  ILC_CHECK_MSG(!training.empty(), "no sequence search data in KB");
  return search::FocusedModel(std::move(training), std::move(space), kind);
}

search::SearchTrace IntelligentController::iterative(
    search::Evaluator& eval, const std::vector<double>& static_features,
    const std::string& exclude_program, unsigned budget,
    support::Rng& rng) const {
  search::SequenceSpace space;
  search::FocusedModel model =
      build_focused_model(kb_, exclude_program, machine_, space);
  model.set_target(static_features);
  return search::generator_search(
      eval, [&] { return model.sample(rng); }, budget);
}

}  // namespace ilc::ctrl
