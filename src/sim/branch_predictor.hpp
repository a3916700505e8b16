// Conditional-branch predictor: gshare-style table of 2-bit saturating
// counters, or a static backward-taken predictor when entries == 0 (the
// DSP-like configuration — the TI C6713 has no dynamic prediction).
#pragma once

#include <cstdint>
#include <vector>

namespace ilc::sim {

class BranchPredictor {
 public:
  /// entries must be a power of two, or 0 for the static predictor.
  explicit BranchPredictor(std::uint32_t entries);

  /// Predict a branch identified by `branch_id`. `backward` flags a branch
  /// whose taken target does not come later in layout order (loop-shaped).
  /// Inline (with update below): called once per simulated conditional
  /// branch from the decoded execution engine.
  bool predict(std::uint64_t branch_id, bool backward) const {
    if (table_.empty()) return backward;  // static: loops taken, exits not
    return table_[index(branch_id)] >= 2;
  }

  /// Update state with the actual outcome. The saturating-counter step is
  /// branch-free: `taken` is data-dependent simulated control flow, which
  /// the host branch predictor cannot learn.
  void update(std::uint64_t branch_id, bool taken) {
    if (table_.empty()) return;
    std::uint8_t& ctr = table_[index(branch_id)];
    const std::uint8_t up = static_cast<std::uint8_t>(taken & (ctr < 3));
    const std::uint8_t down = static_cast<std::uint8_t>((!taken) & (ctr > 0));
    ctr = static_cast<std::uint8_t>(ctr + up - down);
    history_ = (history_ << 1) | (taken ? 1 : 0);
  }

  bool is_static() const { return table_.empty(); }

  /// Back to the constructed state: counters weakly taken, no history.
  void reset();

 private:
  std::size_t index(std::uint64_t branch_id) const {
    const std::uint64_t mixed = branch_id ^ (history_ * 0x9e3779b97f4a7c15ULL);
    return static_cast<std::size_t>(mixed) & (table_.size() - 1);
  }

  std::vector<std::uint8_t> table_;  // 2-bit counters, init weakly taken
  std::uint64_t history_ = 0;
};

}  // namespace ilc::sim
