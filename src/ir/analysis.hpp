// CFG analyses shared by the optimizer: predecessors/successors, reverse
// post-order, dominators (Cooper–Harvey–Kennedy), natural loops, and
// register liveness. All results are plain value types recomputed on
// demand — passes mutate the IR, so nothing here is cached across passes.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/function.hpp"

namespace ilc::ir {

/// Dynamic bitset over virtual registers. Set operations work a 64-bit
/// word at a time; both operands must have the same size.
class RegSet {
 public:
  explicit RegSet(unsigned num_regs = 0)
      : bits_((std::size_t{num_regs} + 63) / 64, 0) {}

  void insert(Reg r) { bits_[r >> 6] |= 1ULL << (r & 63); }
  void erase(Reg r) { bits_[r >> 6] &= ~(1ULL << (r & 63)); }
  bool contains(Reg r) const { return (bits_[r >> 6] >> (r & 63)) & 1; }

  /// this |= other; returns true if this changed.
  bool merge(const RegSet& other);
  /// this |= (other − minus); returns true if this changed.
  bool merge_difference(const RegSet& other, const RegSet& minus);
  bool operator==(const RegSet&) const = default;

  std::size_t count() const;

 private:
  std::vector<std::uint64_t> bits_;
};

/// Predecessor/successor lists per block.
struct Cfg {
  std::vector<std::vector<BlockId>> succs;
  std::vector<std::vector<BlockId>> preds;

  explicit Cfg(const Function& fn);
};

/// Blocks reachable from entry, in reverse post-order (entry first).
std::vector<BlockId> reverse_post_order(const Function& fn);

/// Immediate dominators for reachable blocks; idom[entry] == entry,
/// idom[b] == kNoBlock for unreachable b.
std::vector<BlockId> immediate_dominators(const Function& fn, const Cfg& cfg);

/// True if a dominates b (reflexive) given an idom array.
bool dominates(const std::vector<BlockId>& idom, BlockId a, BlockId b);

/// A natural loop discovered from a back edge latch->header.
struct Loop {
  BlockId header = kNoBlock;
  std::vector<BlockId> latches;      // sources of back edges to header
  std::vector<BlockId> blocks;       // body incl. header, sorted
  bool contains(BlockId b) const;
};

/// All natural loops (back edges whose header dominates the latch).
/// Loops sharing a header are merged. Sorted by header id.
std::vector<Loop> find_loops(const Function& fn);

/// Per-block liveness (backward dataflow). live_in[b] = registers live at
/// block entry; live_out[b] at block exit.
struct Liveness {
  std::vector<RegSet> live_in;
  std::vector<RegSet> live_out;
};

Liveness compute_liveness(const Function& fn, const Cfg& cfg);

/// Estimated execution frequency per block: 10^loop_depth, used by
/// heuristics (inlining, scheduling priorities, feature extraction).
std::vector<double> block_frequencies(const Function& fn);

}  // namespace ilc::ir
