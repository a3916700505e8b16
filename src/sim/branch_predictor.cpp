#include "sim/branch_predictor.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace ilc::sim {

BranchPredictor::BranchPredictor(std::uint32_t entries) {
  if (entries != 0) {
    ILC_CHECK_MSG((entries & (entries - 1)) == 0,
                  "predictor entries must be a power of two");
    table_.assign(entries, 2);  // weakly taken
  }
}

void BranchPredictor::reset() {
  std::fill(table_.begin(), table_.end(), 2);
  history_ = 0;
}

}  // namespace ilc::sim
