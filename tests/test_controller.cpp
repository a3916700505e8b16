// Controller tests: KB building (the training period), the counter model
// (PCModel), and the one-shot / iterative controller paths. Uses a small
// sub-suite to keep runtime modest.
#include <gtest/gtest.h>

#include <cmath>

#include "controller/controller.hpp"
#include "controller/kb_builder.hpp"
#include "sim/interpreter.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;

class ControllerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    suite_ = new std::vector<wl::Workload>();
    for (const auto& name :
         {"mcf_lite", "crc32", "fir", "sha_lite", "dotprod", "histogram"})
      suite_->push_back(wl::make_workload(name));
    std::vector<ctrl::SuiteProgram> programs;
    for (const auto& w : *suite_) programs.push_back({w.name, &w.module});
    base_ = new kb::KnowledgeBase(ctrl::build_knowledge_base(
        programs, sim::amd_like(), /*sequence_budget=*/25,
        /*flag_budget=*/20, /*seed=*/99));
  }
  static void TearDownTestSuite() {
    delete base_;
    delete suite_;
    base_ = nullptr;
    suite_ = nullptr;
  }

  static std::vector<wl::Workload>* suite_;
  static kb::KnowledgeBase* base_;
};

std::vector<wl::Workload>* ControllerFixture::suite_ = nullptr;
kb::KnowledgeBase* ControllerFixture::base_ = nullptr;

TEST_F(ControllerFixture, KbHasAllRecordKinds) {
  EXPECT_EQ(base_->programs().size(), 6u);
  for (const auto& program : base_->programs()) {
    EXPECT_EQ(base_->for_program(program, "profile").size(), 1u) << program;
    EXPECT_EQ(base_->for_program(program, "sequence").size(), 25u) << program;
    EXPECT_EQ(base_->for_program(program, "flags").size(), 20u) << program;
  }
}

TEST_F(ControllerFixture, KbRoundTripsThroughStandardFormat) {
  const auto parsed = kb::KnowledgeBase::parse(base_->serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), base_->size());
  // The parsed KB must drive the controller identically.
  ctrl::CounterModel a(*base_, "mcf_lite", "amd-like");
  ctrl::CounterModel b(*parsed, "mcf_lite", "amd-like");
  const auto* profile = base_->for_program("mcf_lite", "profile")[0];
  EXPECT_EQ(a.predict(profile->dynamic_features).encode(),
            b.predict(profile->dynamic_features).encode());
}

TEST_F(ControllerFixture, CounterModelExcludesTargetProgram) {
  ctrl::CounterModel model(*base_, "mcf_lite", "amd-like");
  EXPECT_EQ(model.training_programs(), 5u);
  const auto* profile = base_->for_program("mcf_lite", "profile")[0];
  model.predict(profile->dynamic_features);
  EXPECT_NE(model.nearest_program(), "mcf_lite");
}

TEST_F(ControllerFixture, OneShotPredictionBeatsO0OnAverage) {
  // Leave-one-out: one-shot prediction should deliver real speedup over
  // O0 for most programs (geomean > 1).
  double log_speedup = 0.0;
  for (const auto& w : *suite_) {
    const ctrl::CounterModel model(*base_, w.name, "amd-like");
    const auto* profile = base_->for_program(w.name, "profile")[0];
    const opt::OptFlags flags = model.predict(profile->dynamic_features);
    search::Evaluator eval(w.module, sim::amd_like());
    const auto predicted = eval.eval_flags(flags);
    const auto o0 = eval.eval_flags(opt::o0_flags());
    log_speedup += std::log(static_cast<double>(o0.cycles) /
                            static_cast<double>(predicted.cycles));
  }
  // The bar: a clear positive geomean speedup with only 5 training
  // programs and 20 flag points each (the benches use a larger training
  // period and do better).
  EXPECT_GT(std::exp(log_speedup / suite_->size()), 1.1);
}

TEST_F(ControllerFixture, IterativeModeImprovesAndConverges) {
  const wl::Workload& target = (*suite_)[1];  // crc32
  ctrl::IntelligentController controller(*base_, "amd-like");
  search::Evaluator eval(target.module, sim::amd_like());
  support::Rng rng(7);
  const auto static_features = feat::extract_static(target.module);
  const auto trace =
      controller.iterative(eval, static_features, target.name, 12, rng);
  EXPECT_EQ(trace.evaluations, 12u);
  const auto o0 = eval.eval_flags(opt::o0_flags());
  EXPECT_LT(trace.best_metric, o0.cycles);
}

TEST_F(ControllerFixture, FocusedModelBuildsFromKb) {
  search::SequenceSpace space;
  auto model =
      ctrl::build_focused_model(*base_, "fir", "amd-like", space, 0.2);
  wl::Workload fir = wl::make_workload("fir");
  model.set_target(feat::extract_static(fir.module));
  EXPECT_NE(model.selected_program(), "fir");
  support::Rng rng(3);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(space.valid(model.sample(rng)));
}

TEST_F(ControllerFixture, ProfileRecordCarriesCounterSignature) {
  const auto* profile = base_->for_program("mcf_lite", "profile")[0];
  EXPECT_GT(profile->counters[sim::L2_TCM], 0u);
  EXPECT_EQ(profile->dynamic_features.size(),
            feat::dynamic_feature_names().size());
  EXPECT_EQ(profile->static_features.size(),
            feat::static_feature_names().size());
  EXPECT_GT(profile->cycles, 0u);
}

}  // namespace
