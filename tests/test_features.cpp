// Characterization-layer tests: static features discriminate program
// shapes, dynamic features mirror counters, scaler/mutual-information
// behave.
#include <gtest/gtest.h>

#include <cmath>

#include "features/arch_probe.hpp"
#include "features/features.hpp"
#include "sim/interpreter.hpp"
#include "support/assert.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;

TEST(StaticFeatures, DimensionsAndNames) {
  wl::Workload w = wl::make_workload("adpcm");
  const auto f = feat::extract_static(w.module);
  EXPECT_EQ(f.size(), feat::static_feature_names().size());
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(StaticFeatures, RatiosAreInUnitInterval) {
  for (const auto& name : wl::workload_names()) {
    wl::Workload w = wl::make_workload(name);
    const auto f = feat::extract_static(w.module);
    const auto& names = feat::static_feature_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i].rfind("ratio_", 0) == 0 || names[i].rfind("frac", 0) == 0) {
        EXPECT_GE(f[i], 0.0) << name << " " << names[i];
        EXPECT_LE(f[i], 1.0) << name << " " << names[i];
      }
    }
  }
}

TEST(StaticFeatures, DiscriminateMemoryVsCompute) {
  wl::Workload mcf = wl::make_workload("mcf_lite");
  wl::Workload sha = wl::make_workload("sha_lite");
  const auto fm = feat::extract_static(mcf.module);
  const auto fs = feat::extract_static(sha.module);
  // ratio_ptr_mem index.
  std::size_t ptr_idx = 0;
  const auto& names = feat::static_feature_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == "ratio_ptr_mem") ptr_idx = i;
  EXPECT_GT(fm[ptr_idx], fs[ptr_idx]);
}

TEST(StaticFeatures, DistinctAcrossSuite) {
  // No two programs should have identical static feature vectors.
  std::vector<std::vector<double>> rows;
  for (const auto& name : wl::workload_names()) {
    wl::Workload w = wl::make_workload(name);
    rows.push_back(feat::extract_static(w.module));
  }
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = i + 1; j < rows.size(); ++j)
      EXPECT_GT(feat::euclidean(rows[i], rows[j]), 1e-9);
}

TEST(DynamicFeatures, MatchCounterRates) {
  sim::Counters c;
  c[sim::TOT_INS] = 1000;
  c[sim::TOT_CYC] = 2500;
  c[sim::L1_TCM] = 50;
  const auto f = feat::extract_dynamic(c);
  EXPECT_DOUBLE_EQ(f[0], 2.5);  // CPI
  const auto& names = feat::dynamic_feature_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == "L1_TCM_per_kilo_ins") EXPECT_DOUBLE_EQ(f[i], 50.0);
}

TEST(DynamicFeatures, ZeroInstructionsIsSafe) {
  const auto f = feat::extract_dynamic(sim::Counters{});
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(Scaler, ZScoreNormalizes) {
  feat::Scaler s;
  s.fit({{0, 10}, {2, 10}, {4, 10}});
  const auto t = s.transform({2, 10});
  EXPECT_NEAR(t[0], 0.0, 1e-12);
  EXPECT_NEAR(t[1], 0.0, 1e-12);  // constant feature -> 0, not inf
  const auto hi = s.transform({4, 10});
  EXPECT_GT(hi[0], 1.0);
}

TEST(MutualInfo, InformativeFeatureBeatsNoise) {
  // Feature perfectly separating classes has high MI; constant ~0.
  std::vector<double> good, noise;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    labels.push_back(i % 2);
    good.push_back(i % 2 == 0 ? -1.0 + 0.001 * i : 1.0 + 0.001 * i);
    noise.push_back(0.001 * ((i * 37) % 100));
  }
  const double mi_good = feat::mutual_information(good, labels);
  const double mi_noise = feat::mutual_information(noise, labels);
  EXPECT_GT(mi_good, 0.9);
  EXPECT_LT(mi_noise, 0.1);
  EXPECT_GT(mi_good, mi_noise);
}

TEST(MutualInfo, NonNegative) {
  std::vector<double> f = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> y = {0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_GE(feat::mutual_information(f, y), 0.0);
}

// --- architecture characterization by microbenchmark ---------------------

TEST(ArchProbe, RecoversCacheCapacitiesExactly) {
  const auto p = feat::probe_architecture(sim::amd_like());
  EXPECT_EQ(p.l1_capacity, sim::amd_like().l1.size_bytes);
  EXPECT_EQ(p.l2_capacity, sim::amd_like().l2.size_bytes);
}

TEST(ArchProbe, RecoversMispredictPenalty) {
  const auto p1 = feat::probe_architecture(sim::amd_like());
  EXPECT_NEAR(p1.mispredict_penalty, sim::amd_like().mispredict_penalty, 1.5);
  const auto p2 = feat::probe_architecture(sim::c6713_like());
  EXPECT_NEAR(p2.mispredict_penalty, sim::c6713_like().mispredict_penalty,
              1.5);
}

TEST(ArchProbe, LatencyPlateausAreOrdered) {
  for (const auto& cfg : {sim::amd_like(), sim::c6713_like()}) {
    const auto p = feat::probe_architecture(cfg);
    EXPECT_LT(p.l1_latency, p.l2_latency) << cfg.name;
    EXPECT_LT(p.l2_latency, p.mem_latency) << cfg.name;
    // Measured load-to-use latency tracks the configured hierarchy within
    // loop-overhead slack.
    EXPECT_NEAR(p.mem_latency,
                cfg.l1.hit_latency + cfg.l2.hit_latency + cfg.mem_latency,
                20.0)
        << cfg.name;
  }
}

TEST(ArchProbe, DistinguishesMachines) {
  const auto amd = feat::probe_architecture(sim::amd_like());
  const auto dsp = feat::probe_architecture(sim::c6713_like());
  EXPECT_NE(amd.to_features(), dsp.to_features());
  EXPECT_GT(amd.mem_latency, dsp.mem_latency);  // DRAM gap differs
  EXPECT_GT(dsp.l2_capacity, amd.l2_capacity);
}

TEST(ArchProbe, FeatureVectorShape) {
  const auto p = feat::probe_architecture(sim::amd_like());
  EXPECT_EQ(p.to_features().size(), 8u);  // one per ArchProfile field
  for (double v : p.to_features()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
}

}  // namespace
