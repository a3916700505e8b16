#include "dynopt/dynopt.hpp"

#include "features/features.hpp"
#include "opt/pipelines.hpp"
#include "support/assert.hpp"

namespace ilc::dyn {

std::vector<CodeVersion> default_versions(const ir::Module& base) {
  std::vector<CodeVersion> versions;
  versions.push_back({"O0", base});
  {
    opt::OptFlags f = opt::fast_flags();
    f.prefetch = false;
    CodeVersion v{"fast", base};
    opt::run_sequence(v.module, opt::pipeline(f));
    versions.push_back(std::move(v));
  }
  {
    opt::OptFlags f = opt::fast_flags();
    f.prefetch = true;
    CodeVersion v{"fast+prefetch", base};
    opt::run_sequence(v.module, opt::pipeline(f));
    versions.push_back(std::move(v));
  }
  return versions;
}

DynamicOptimizer::DynamicOptimizer(std::vector<CodeVersion> versions,
                                   sim::MachineConfig machine)
    : versions_(std::move(versions)), machine_(std::move(machine)) {
  ILC_CHECK(!versions_.empty());
}

namespace {

std::int64_t fold32(std::int64_t x) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) &
                                   0x7fffffffULL);
}

}  // namespace

AuditReport DynamicOptimizer::run_static(const KernelSpec& spec,
                                         unsigned version) {
  ILC_CHECK(version < versions_.size());
  AuditReport rep;
  rep.cycles_per_version.assign(versions_.size(), 0);
  sim::Simulator sim(versions_[version].module, machine_);
  if (!spec.setup.empty()) sim.call(spec.setup);
  for (std::int64_t i = 0; i < spec.items; ++i) {
    const auto rr = sim.call(spec.kernel, {i});
    rep.checksum = fold32(rep.checksum + rr.ret);
    rep.total_cycles += rr.cycles;
    rep.cycles_per_version[version] += rr.cycles;
    rep.version_per_item.push_back(version);
  }
  return rep;
}

AuditReport DynamicOptimizer::run_audited(const KernelSpec& spec) {
  AuditReport rep;
  rep.cycles_per_version.assign(versions_.size(), 0);

  // One simulator; code versions are swapped in via switch_module so
  // memory, caches, and predictor state carry across, exactly like a
  // runtime code cache would behave. A switch drops the simulator's
  // decoding, so it happens only when the running version changes.
  sim::Simulator sim(versions_[0].module, machine_);
  unsigned loaded = 0;  // the version the simulator runs
  if (!spec.setup.empty()) sim.call(spec.setup);

  PhaseDetector detector;
  unsigned committed = 0;      // currently committed version
  bool auditing = true;        // start life by auditing
  unsigned audit_next = 0;     // next version to time in this audit round
  std::vector<std::uint64_t> audit_cycles(versions_.size(), 0);
  unsigned last_phase = 0;

  for (std::int64_t i = 0; i < spec.items; ++i) {
    unsigned running;
    if (auditing) {
      running = audit_next;
    } else {
      running = committed;
    }
    if (running != loaded) {
      sim.switch_module(versions_[running].module);
      loaded = running;
    }
    const auto rr = sim.call(spec.kernel, {i});
    rep.checksum = fold32(rep.checksum + rr.ret);
    rep.total_cycles += rr.cycles;
    rep.cycles_per_version[running] += rr.cycles;
    rep.version_per_item.push_back(running);

    // Runtime monitoring: interval signature from counter deltas.
    detector.feed(feat::extract_dynamic(rr.counters));

    if (auditing) {
      audit_cycles[running] = rr.cycles;
      if (++audit_next >= versions_.size()) {
        // Audit round complete: commit to the fastest version.
        unsigned best = 0;
        for (unsigned v = 1; v < versions_.size(); ++v)
          if (audit_cycles[v] < audit_cycles[best]) best = v;
        if (best != committed) ++rep.switches;
        committed = best;
        auditing = false;
        ++rep.audits;
        last_phase = detector.phase_id();
      }
    } else if (detector.phase_id() != last_phase) {
      // Phase change: re-audit from scratch.
      auditing = true;
      audit_next = 0;
      last_phase = detector.phase_id();
    }
  }
  return rep;
}

}  // namespace ilc::dyn
