// Architecture characterization by microbenchmark (paper Section III-B:
// "for the targeted computing system, this characterization ... can be
// efficiently characterized with microbenchmarks", citing Yotov et al.'s
// automatic measurement of memory-hierarchy parameters).
//
// The prober generates IR microbenchmarks — pointer chases over working
// sets of increasing size, dependent ALU chains, branch-pattern loops —
// runs them on the target machine (the simulator), and infers the
// hierarchy's shape from the measured cycles alone, never reading the
// MachineConfig. The inferred vector goes into the knowledge base as the
// architecture's characterization.
#pragma once

#include <vector>

#include "sim/machine.hpp"

namespace ilc::feat {

/// Inferred machine parameters. Latencies are measured end-to-end in
/// cycles per dependent operation; capacities are the largest working set
/// that still runs at the level's latency.
struct ArchProfile {
  double l1_latency = 0;       // cycles per load, working set << L1
  double l2_latency = 0;       // cycles per load, L1 < ws <= L2
  double mem_latency = 0;      // cycles per load, ws >> L2
  std::uint64_t l1_capacity = 0;  // bytes (power of two estimate)
  std::uint64_t l2_capacity = 0;  // bytes
  double alu_latency = 0;      // cycles per dependent add
  double mul_latency = 0;      // cycles per dependent multiply
  double mispredict_penalty = 0;  // cycles per forced mispredict

  /// Flat feature vector (for the knowledge base's standard format): the
  /// fields above in order, capacities as log2.
  std::vector<double> to_features() const;
};

/// Run the microbenchmark battery against a machine configuration.
ArchProfile probe_architecture(const sim::MachineConfig& machine);

}  // namespace ilc::feat
