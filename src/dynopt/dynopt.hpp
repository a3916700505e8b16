// The dynamic optimization module (paper Section III-D): each binary
// carries multiple statically-compiled code versions, a runtime monitor
// characterizes execution intervals from performance-counter deltas, a
// phase detector starts a new phase whenever an interval's signature jumps
// away from the previous interval's (after Fursin et al.), and an online
// performance auditor (after Lau et al.) times each version on one
// interval in turn and commits to the fastest. When the phase changes
// under the committed version, the auditor re-audits from the next
// interval on, without waiting for the new phase to settle; a phase
// change during an audit round does not restart the round.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "sim/interpreter.hpp"

namespace ilc::dyn {

/// One statically-compiled version of the program. Versions must share
/// the base module's memory layout (so no pointer compression here — the
/// simulator's switch_module enforces it).
struct CodeVersion {
  std::string name;
  ir::Module module;
};

/// A sensible default multi-versioning set: baseline, aggressively
/// optimized without prefetch, and aggressively optimized with prefetch —
/// the streaming-vs-chasing trade the phased workloads expose.
std::vector<CodeVersion> default_versions(const ir::Module& base);

/// Phase detector over interval signatures: a signature farther than
/// `threshold` relative L1 distance from the previous one starts a new
/// phase id.
class PhaseDetector {
 public:
  explicit PhaseDetector(double threshold = 0.25);
  void feed(const std::vector<double>& signature);
  unsigned phase_id() const { return phase_; }

 private:
  double distance(const std::vector<double>& a,
                  const std::vector<double>& b) const;
  double threshold_;
  std::vector<double> last_;  // empty before the first feed
  unsigned phase_ = 0;
};

/// What the kernel-driving harness needs to know about the program.
struct KernelSpec {
  std::string kernel;          // kernel(i) function name
  std::string setup;           // optional one-time setup function
  std::int64_t items = 0;      // i in [0, items)
};

struct AuditReport {
  std::int64_t checksum = 0;        // fold32-accumulated kernel returns
  std::uint64_t total_cycles = 0;
  std::vector<unsigned> version_per_item;  // which version ran each item
  unsigned switches = 0;            // committed-version changes
  unsigned audits = 0;              // audit rounds triggered
  std::vector<std::uint64_t> cycles_per_version;  // attribution
};

class DynamicOptimizer {
 public:
  DynamicOptimizer(std::vector<CodeVersion> versions,
                   sim::MachineConfig machine);

  /// Run the whole workload under online performance auditing.
  AuditReport run_audited(const KernelSpec& spec);

  /// Run everything on one fixed version (the static baselines).
  AuditReport run_static(const KernelSpec& spec, unsigned version);

  const std::vector<CodeVersion>& versions() const { return versions_; }

 private:
  std::vector<CodeVersion> versions_;
  sim::MachineConfig machine_;
};

}  // namespace ilc::dyn
