// Learned-scheduling case study tests (paper Section II): instance
// generation at decision points, scoreboard cost model, classifier
// training, and integration of the induced heuristic.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "opt/pass.hpp"
#include "sched/sched.hpp"
#include "sim/interpreter.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;
using namespace ilc::ir;

TEST(OrderCost, PrefersLatencyHiding) {
  // mul (lat 3) followed immediately by its consumer stalls; filling the
  // gap with independent work is cheaper.
  std::vector<Instr> insts;
  auto mk = [&](Opcode op, Reg dst, Reg a, Reg b) {
    Instr i;
    i.op = op;
    i.dst = dst;
    i.a = a;
    i.b = b;
    return i;
  };
  Instr imm0;
  imm0.op = Opcode::LoadImm;
  imm0.dst = 0;
  imm0.imm = 3;
  insts.push_back(imm0);                              // 0: r0 = 3
  insts.push_back(mk(Opcode::Mul, 1, 0, 0));          // 1: r1 = r0*r0
  insts.push_back(mk(Opcode::Add, 2, 1, 0));          // 2: r2 = r1+r0 (stalls)
  Instr immx;
  immx.op = Opcode::LoadImm;
  immx.dst = 3;
  immx.imm = 9;
  insts.push_back(immx);                              // 3: independent
  // Evaluate single-issue so the pairing effect doesn't mask the stall.
  const std::uint64_t naive = sched::order_cost(insts, {0, 1, 2, 3}, 1);
  const std::uint64_t hidden = sched::order_cost(insts, {0, 1, 3, 2}, 1);
  EXPECT_LT(hidden, naive);
}

TEST(Instances, GeneratedWithConsistentShape) {
  support::Rng rng(5);
  std::vector<sched::Instance> all;
  for (const auto& name : {"adpcm", "matmul", "sha_lite", "stencil"}) {
    wl::Workload w = wl::make_workload(name);
    for (const auto& fn : w.module.functions()) {
      const auto inst = sched::generate_instances(fn, rng);
      all.insert(all.end(), inst.begin(), inst.end());
    }
  }
  ASSERT_GT(all.size(), 10u);
  for (const auto& i : all) {
    EXPECT_EQ(i.features.size(), sched::pair_feature_names().size());
    EXPECT_TRUE(i.label == 0 || i.label == 1);
  }
  // Both labels must occur (the pairs are randomly ordered).
  bool has0 = false, has1 = false;
  for (const auto& i : all) {
    has0 |= i.label == 0;
    has1 |= i.label == 1;
  }
  EXPECT_TRUE(has0);
  EXPECT_TRUE(has1);
}

TEST(Instances, DatasetConversion) {
  wl::Workload w = wl::make_workload("fir");
  support::Rng rng(6);
  std::vector<sched::Instance> all;
  for (const auto& fn : w.module.functions()) {
    const auto inst = sched::generate_instances(fn, rng);
    all.insert(all.end(), inst.begin(), inst.end());
  }
  const ml::Dataset d = sched::to_dataset(all);
  EXPECT_EQ(d.size(), all.size());
  EXPECT_EQ(d.num_classes, 2);
}

TEST(LearnedScheduler, HeightOracleReproducesGreedyBehaviour) {
  // A "classifier" that just compares critical-path heights must act like
  // the hand-written greedy scheduler.
  class HeightOracle : public ml::Classifier {
   public:
    void fit(const ml::Dataset&) override {}
    int predict(const std::vector<double>& x) const override {
      return x[0] > 0 ? 1 : (x[0] < 0 ? 0 : (x[7] < 0 ? 1 : 0));
    }
    std::string name() const override { return "height-oracle"; }
  };

  wl::Workload learned = wl::make_workload("sha_lite");
  wl::Workload greedy = wl::make_workload("sha_lite");
  HeightOracle oracle;
  for (auto& fn : learned.module.functions())
    sched::schedule_with_model(fn, oracle);
  for (auto& fn : greedy.module.functions()) opt::schedule_blocks(fn);

  ASSERT_EQ(verify(learned.module), "");
  sim::Simulator s_l(learned.module, sim::amd_like());
  sim::Simulator s_g(greedy.module, sim::amd_like());
  const auto rl = s_l.run();
  const auto rg = s_g.run();
  EXPECT_EQ(rl.ret, learned.expected_checksum);
  // Same priority rule => near-identical schedules (tournament tie-breaks
  // may differ from the greedy scan by a hair).
  EXPECT_NEAR(static_cast<double>(rl.cycles), static_cast<double>(rg.cycles),
              0.01 * static_cast<double>(rg.cycles));
}

TEST(LearnedScheduler, TrainedModelPreservesSemanticsEverywhere) {
  // Train on a few workloads, apply to all (incl. unseen) — semantics
  // must hold regardless of model quality.
  support::Rng rng(9);
  std::vector<sched::Instance> train;
  for (const auto& name : {"adpcm", "fir", "matmul"}) {
    wl::Workload w = wl::make_workload(name);
    for (const auto& fn : w.module.functions()) {
      const auto inst = sched::generate_instances(fn, rng);
      train.insert(train.end(), inst.begin(), inst.end());
    }
  }
  ml::LogisticRegression model;
  model.fit(sched::to_dataset(train));

  for (const auto& name : wl::workload_names()) {
    wl::Workload w = wl::make_workload(name);
    for (auto& fn : w.module.functions())
      sched::schedule_with_model(fn, model);
    ASSERT_EQ(verify(w.module), "") << name;
    sim::Simulator s(w.module, sim::amd_like());
    EXPECT_EQ(s.run().ret, w.expected_checksum) << name;
  }
}

TEST(LearnedScheduler, LearnedHeuristicIsCompetitive) {
  // The central Section II claim: induced heuristics are comparable to
  // the hand-tuned one. Train leave-one-out for sha_lite, compare cycles.
  support::Rng rng(11);
  std::vector<sched::Instance> train;
  for (const auto& name : wl::workload_names()) {
    if (std::string(name) == "sha_lite") continue;
    wl::Workload w = wl::make_workload(name);
    sched::prepare_for_scheduling(w.module);
    for (const auto& fn : w.module.functions()) {
      const auto inst = sched::generate_instances(fn, rng);
      train.insert(train.end(), inst.begin(), inst.end());
    }
  }
  ml::DecisionTree model;
  model.fit(sched::to_dataset(train));

  wl::Workload learned = wl::make_workload("sha_lite");
  wl::Workload greedy = wl::make_workload("sha_lite");
  wl::Workload baseline = wl::make_workload("sha_lite");
  sched::prepare_for_scheduling(learned.module);
  sched::prepare_for_scheduling(greedy.module);
  sched::prepare_for_scheduling(baseline.module);
  for (auto& fn : learned.module.functions())
    sched::schedule_with_model(fn, model);
  for (auto& fn : greedy.module.functions()) opt::schedule_blocks(fn);

  sim::Simulator s_l(learned.module, sim::amd_like());
  sim::Simulator s_g(greedy.module, sim::amd_like());
  sim::Simulator s_b(baseline.module, sim::amd_like());
  const auto cl = s_l.run().cycles;
  const auto cg = s_g.run().cycles;
  const auto cb = s_b.run().cycles;
  // "Comparable to hand-tuned" (the paper's claim): within 5% of both the
  // critical-path scheduler and the unscheduled baseline.
  EXPECT_LE(static_cast<double>(cl), 1.05 * static_cast<double>(cb));
  EXPECT_LE(static_cast<double>(cl), 1.05 * static_cast<double>(cg));
}

}  // namespace
