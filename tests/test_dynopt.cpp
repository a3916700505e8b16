// Dynamic-optimization tests: phase detection, version switching under a
// live simulator, auditing correctness (checksums preserved across
// switches, one decode per version change), and the core claim — the
// auditor tracks the per-phase best version and beats the worst static
// choice.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "dynopt/dynopt.hpp"
#include "obs/metrics.hpp"
#include "sim/interpreter.hpp"
#include "support/assert.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;

TEST(PhaseDetector, StableAfterWindowOfSimilarSignatures) {
  // Signatures within the threshold of their predecessor stay in phase 0.
  dyn::PhaseDetector det(0.25);
  det.feed({1.0, 2.0});
  det.feed({1.02, 2.01});
  det.feed({0.99, 1.98});
  EXPECT_EQ(det.phase_id(), 0u);
}

TEST(PhaseDetector, JumpStartsNewPhase) {
  dyn::PhaseDetector det(0.25);
  for (int i = 0; i < 4; ++i) det.feed({1.0, 2.0});
  det.feed({10.0, 0.1});  // big jump
  EXPECT_EQ(det.phase_id(), 1u);
  det.feed({10.0, 0.1});
  det.feed({10.0, 0.1});
  EXPECT_EQ(det.phase_id(), 1u);
}

TEST(SwitchModule, KeepsMemoryAcrossVersions) {
  wl::Workload w = wl::make_workload("adpcm");
  const auto versions = dyn::default_versions(w.module);
  ASSERT_EQ(versions.size(), 3u);
  sim::Simulator sim(versions[0].module, sim::amd_like());
  sim.call("init");
  std::int64_t sum = 0;
  for (std::int64_t i = 0; i < w.kernel_items; ++i) {
    sim.switch_module(versions[i % versions.size()].module);
    sum = (sum + sim.call("encode_block", {i}).ret) & 0x7fffffff;
  }
  // Codec state flowed across version switches: checksum must match.
  EXPECT_EQ(sum, w.kernel_checksum);
}

// A switch drops the simulator's decoding, so the auditor switches only
// when the running version changes: one decode for the first engine call,
// plus one per change (adpcm: 3 changes over 16 items; phased_mix: 13
// over 64).
TEST(AuditedRun, DecodesOncePerRunningVersionChange) {
  const obs::Histogram decode_us =
      obs::Registry::instance().histogram("sim.decode_us");
  for (const auto& [name, changes] :
       {std::pair<const char*, std::size_t>{"adpcm", 3},
        std::pair<const char*, std::size_t>{"phased_mix", 13}}) {
    SCOPED_TRACE(name);
    const wl::Workload w = wl::make_workload(name);
    dyn::DynamicOptimizer opt(dyn::default_versions(w.module),
                              sim::amd_like());
    const std::uint64_t before = decode_us.count();
    const dyn::AuditReport rep =
        opt.run_audited({w.kernel, w.kernel_setup, w.kernel_items});
    const std::uint64_t decodes = decode_us.count() - before;

    std::size_t seen = 0;
    unsigned running = 0;  // the simulator starts on version 0
    for (const unsigned v : rep.version_per_item) {
      if (v != running) ++seen;
      running = v;
    }
    EXPECT_EQ(seen, changes);
    EXPECT_EQ(decodes, 1 + seen);
  }
}

TEST(SwitchModule, RejectsLayoutChange) {
  wl::Workload base = wl::make_workload("mcf_lite");
  wl::Workload comp = wl::make_workload("mcf_lite");
  comp.module.set_ptr_bytes(4);  // layout differs
  sim::Simulator sim(base.module, sim::amd_like());
  EXPECT_THROW(sim.switch_module(comp.module), support::CheckError);
}

TEST(DefaultVersions, AreSemanticallyEquivalent) {
  wl::Workload w = wl::make_workload("phased_mix");
  for (const auto& v : dyn::default_versions(w.module)) {
    sim::Simulator sim(v.module, sim::amd_like());
    EXPECT_EQ(sim.run().ret, w.expected_checksum) << v.name;
  }
}

class DynoptFixture : public ::testing::Test {
 protected:
  static dyn::AuditReport* audited_;
  static std::vector<dyn::AuditReport>* statics_;
  static wl::Workload* w_;

  static void SetUpTestSuite() {
    w_ = new wl::Workload(wl::make_workload("phased_mix"));
    auto versions = dyn::default_versions(w_->module);
    dyn::DynamicOptimizer opt(std::move(versions), sim::amd_like());
    const dyn::KernelSpec spec{w_->kernel, w_->kernel_setup,
                               w_->kernel_items};
    audited_ = new dyn::AuditReport(opt.run_audited(spec));
    statics_ = new std::vector<dyn::AuditReport>();
    for (unsigned v = 0; v < opt.versions().size(); ++v)
      statics_->push_back(opt.run_static(spec, v));
  }
  static void TearDownTestSuite() {
    delete audited_;
    delete statics_;
    delete w_;
  }
};

dyn::AuditReport* DynoptFixture::audited_ = nullptr;
std::vector<dyn::AuditReport>* DynoptFixture::statics_ = nullptr;
wl::Workload* DynoptFixture::w_ = nullptr;

TEST_F(DynoptFixture, ChecksumSurvivesVersionSwitching) {
  EXPECT_EQ(audited_->checksum, w_->kernel_checksum);
  for (const auto& rep : *statics_)
    EXPECT_EQ(rep.checksum, w_->kernel_checksum);
}

TEST_F(DynoptFixture, AuditorReauditsAcrossPhases) {
  EXPECT_GE(audited_->audits, 2u) << "phased workload should trigger re-audit";
  // More than one version actually used.
  std::set<unsigned> used(audited_->version_per_item.begin(),
                          audited_->version_per_item.end());
  EXPECT_GE(used.size(), 2u);
}

TEST_F(DynoptFixture, AuditedBeatsWorstStaticAndO0) {
  std::uint64_t worst = 0, best = ~0ULL;
  for (const auto& rep : *statics_) {
    worst = std::max(worst, rep.total_cycles);
    best = std::min(best, rep.total_cycles);
  }
  EXPECT_LT(audited_->total_cycles, worst);
  // O0 is version 0.
  EXPECT_LT(audited_->total_cycles, (*statics_)[0].total_cycles);
  // And the audit overhead keeps it within a modest factor of the static
  // oracle.
  EXPECT_LT(static_cast<double>(audited_->total_cycles),
            1.35 * static_cast<double>(best));
}

TEST_F(DynoptFixture, ReportAccountingConsistent) {
  ASSERT_EQ(audited_->version_per_item.size(),
            static_cast<std::size_t>(w_->kernel_items));
  std::uint64_t sum = 0;
  for (auto c : audited_->cycles_per_version) sum += c;
  EXPECT_EQ(sum, audited_->total_cycles);
}

}  // namespace
