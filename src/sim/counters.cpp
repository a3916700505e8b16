#include "sim/counters.hpp"

namespace ilc::sim {

const char* counter_name(Counter c) {
  switch (c) {
    case TOT_INS: return "TOT_INS";
    case TOT_CYC: return "TOT_CYC";
    case LD_INS: return "LD_INS";
    case SR_INS: return "SR_INS";
    case BR_INS: return "BR_INS";
    case BR_MSP: return "BR_MSP";
    case L1_TCA: return "L1_TCA";
    case L1_TCM: return "L1_TCM";
    case L1_LDM: return "L1_LDM";
    case L1_STM: return "L1_STM";
    case L2_TCA: return "L2_TCA";
    case L2_TCM: return "L2_TCM";
    case L2_LDM: return "L2_LDM";
    case L2_STM: return "L2_STM";
    default: return "?";
  }
}

}  // namespace ilc::sim
