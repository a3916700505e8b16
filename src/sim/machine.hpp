// Machine configurations: the cost-model constants of the simulated
// targets. Two presets mirror the paper's platforms:
//   c6713_like() — VLIW DSP flavour: exposed latencies, static branch
//                  prediction, small shallow memory hierarchy.
//   amd_like()   — superscalar workstation flavour: dynamic prediction,
//                  deeper hierarchy, expensive DRAM.
// Constants are plausible rather than calibrated; the paper argues the
// performance oracle only needs to be accurate in a *relative* sense.
#pragma once

#include <cstdint>
#include <string>

#include "sim/cache.hpp"

namespace ilc::sim {

struct MachineConfig {
  std::string name;

  CacheConfig l1{4096, 32, 2, 1};
  CacheConfig l2{32768, 64, 4, 8};
  std::uint32_t mem_latency = 80;

  std::uint32_t mispredict_penalty = 6;
  std::uint32_t bpred_entries = 0;  // 0 = static backward-taken

  std::uint32_t lat_alu = 1;
  std::uint32_t lat_mul = 2;
  std::uint32_t lat_div = 18;
  std::uint32_t call_overhead = 2;  // cycles per call/return pair
  std::uint32_t issue_width = 1;    // instructions issued per cycle

  /// Abort a run after this many dynamic instructions (infinite-loop guard).
  std::uint64_t max_instructions = 200'000'000;
};

MachineConfig c6713_like();
MachineConfig amd_like();

}  // namespace ilc::sim
