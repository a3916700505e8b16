// Hardware performance counters collected by the simulator, named after
// their PAPI equivalents — the same vocabulary the paper's Figs. 3 and 4
// use (L1_TCM, L1_TCA, L2_TCA, L2_STM, ...).
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace ilc::sim {

enum Counter : unsigned {
  TOT_INS = 0,  // total instructions retired
  TOT_CYC,      // total cycles
  LD_INS,       // load instructions
  SR_INS,       // store instructions
  BR_INS,       // branch instructions (conditional)
  BR_MSP,       // mispredicted branches
  L1_TCA,       // L1 data cache total accesses
  L1_TCM,       // L1 data cache total misses
  L1_LDM,       // L1 load misses
  L1_STM,       // L1 store misses
  L2_TCA,       // L2 total accesses
  L2_TCM,       // L2 total misses
  L2_LDM,       // L2 load misses
  L2_STM,       // L2 store misses
  kNumCounters
};

const char* counter_name(Counter c);

struct Counters {
  std::array<std::uint64_t, kNumCounters> v{};

  std::uint64_t operator[](Counter c) const { return v[c]; }
  std::uint64_t& operator[](Counter c) { return v[c]; }

  Counters& operator+=(const Counters& o) {
    for (unsigned i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
    return *this;
  }
  Counters operator-(const Counters& o) const {
    Counters r;
    for (unsigned i = 0; i < kNumCounters; ++i) r.v[i] = v[i] - o.v[i];
    return r;
  }
  bool operator==(const Counters&) const = default;
};

}  // namespace ilc::sim
