#include "ir/analysis.hpp"

#include <algorithm>
#include <array>

#include "support/assert.hpp"

namespace ilc::ir {

bool RegSet::merge(const RegSet& other) {
  ILC_ASSERT(bits_.size() == other.bits_.size());
  bool changed = false;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    const std::uint64_t merged = bits_[i] | other.bits_[i];
    if (merged != bits_[i]) {
      bits_[i] = merged;
      changed = true;
    }
  }
  return changed;
}

bool RegSet::merge_difference(const RegSet& other, const RegSet& minus) {
  ILC_ASSERT(bits_.size() == other.bits_.size() &&
             bits_.size() == minus.bits_.size());
  std::uint64_t grew = 0;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    const std::uint64_t add = other.bits_[i] & ~minus.bits_[i] & ~bits_[i];
    bits_[i] |= add;
    grew |= add;
  }
  return grew != 0;
}

std::size_t RegSet::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : bits_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

namespace {

/// A block's successors, read from its terminator without allocating.
struct Successors {
  std::array<BlockId, 2> ids{kNoBlock, kNoBlock};
  unsigned n = 0;
};

Successors successors_of(const BasicBlock& bb) {
  const Instr& t = bb.terminator();
  switch (t.op) {
    case Opcode::Jump:
      return {{t.t1, kNoBlock}, 1};
    case Opcode::Br:
      return {{t.t1, t.t2}, 2};
    default:  // Ret
      return {};
  }
}

}  // namespace

Cfg::Cfg(const Function& fn) {
  const std::size_t n = fn.blocks.size();
  succs.resize(n);
  preds.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    const Successors s = successors_of(fn.blocks[b]);
    succs[b].assign(s.ids.begin(), s.ids.begin() + s.n);
    for (unsigned i = 0; i < s.n; ++i)
      preds[s.ids[i]].push_back(static_cast<BlockId>(b));
  }
}

std::vector<BlockId> reverse_post_order(const Function& fn) {
  const std::size_t n = fn.blocks.size();
  std::vector<std::uint8_t> state(n, 0);  // 0=unseen 1=open 2=done
  std::vector<BlockId> post;
  post.reserve(n);

  // Iterative DFS with explicit stack of (block, next-successor-index).
  std::vector<std::pair<BlockId, unsigned>> stack;
  stack.emplace_back(0, 0);
  state[0] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    const Successors succ = successors_of(fn.blocks[b]);
    if (next < succ.n) {
      const BlockId s = succ.ids[next++];
      if (state[s] == 0) {
        state[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      state[b] = 2;
      post.push_back(b);
      stack.pop_back();
    }
  }
  std::reverse(post.begin(), post.end());
  return post;
}

std::vector<BlockId> immediate_dominators(const Function& fn,
                                          const Cfg& cfg) {
  const std::vector<BlockId> rpo = reverse_post_order(fn);
  std::vector<std::uint32_t> rpo_index(fn.blocks.size(), UINT32_MAX);
  for (std::size_t i = 0; i < rpo.size(); ++i) rpo_index[rpo[i]] = i;

  std::vector<BlockId> idom(fn.blocks.size(), kNoBlock);
  idom[0] = 0;

  auto intersect = [&](BlockId a, BlockId b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (BlockId b : rpo) {
      if (b == 0) continue;
      BlockId new_idom = kNoBlock;
      for (BlockId p : cfg.preds[b]) {
        if (idom[p] == kNoBlock) continue;  // unreachable or unprocessed
        new_idom = (new_idom == kNoBlock) ? p : intersect(p, new_idom);
      }
      if (new_idom != kNoBlock && idom[b] != new_idom) {
        idom[b] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

bool dominates(const std::vector<BlockId>& idom, BlockId a, BlockId b) {
  if (idom[b] == kNoBlock) return false;  // b unreachable
  while (true) {
    if (a == b) return true;
    if (b == 0) return a == 0;
    b = idom[b];
  }
}

bool Loop::contains(BlockId b) const {
  return std::binary_search(blocks.begin(), blocks.end(), b);
}

std::vector<Loop> find_loops(const Function& fn) {
  const Cfg cfg(fn);
  const std::vector<BlockId> idom = immediate_dominators(fn, cfg);

  std::vector<Loop> loops;
  auto loop_for_header = [&](BlockId h) -> Loop& {
    for (Loop& l : loops)
      if (l.header == h) return l;
    loops.push_back(Loop{});
    loops.back().header = h;
    return loops.back();
  };

  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (idom[b] == kNoBlock) continue;  // unreachable
    for (BlockId s : cfg.succs[b]) {
      if (dominates(idom, s, static_cast<BlockId>(b))) {
        // back edge b -> s
        Loop& loop = loop_for_header(s);
        loop.latches.push_back(static_cast<BlockId>(b));
        // Body: all blocks that reach the latch without passing the header.
        std::vector<std::uint8_t> in_body(fn.blocks.size(), 0);
        in_body[s] = 1;
        std::vector<BlockId> work;
        if (!in_body[b]) {
          in_body[b] = 1;
          work.push_back(static_cast<BlockId>(b));
        }
        while (!work.empty()) {
          const BlockId x = work.back();
          work.pop_back();
          for (BlockId p : cfg.preds[x]) {
            if (!in_body[p] && idom[p] != kNoBlock) {
              in_body[p] = 1;
              work.push_back(p);
            }
          }
        }
        for (std::size_t x = 0; x < fn.blocks.size(); ++x)
          if (in_body[x]) loop.blocks.push_back(static_cast<BlockId>(x));
      }
    }
  }

  for (Loop& l : loops) {
    std::sort(l.blocks.begin(), l.blocks.end());
    l.blocks.erase(std::unique(l.blocks.begin(), l.blocks.end()),
                   l.blocks.end());
    std::sort(l.latches.begin(), l.latches.end());
    l.latches.erase(std::unique(l.latches.begin(), l.latches.end()),
                    l.latches.end());
  }
  std::sort(loops.begin(), loops.end(),
            [](const Loop& a, const Loop& b) { return a.header < b.header; });
  return loops;
}

Liveness compute_liveness(const Function& fn, const Cfg& cfg) {
  const std::size_t n = fn.blocks.size();
  Liveness lv;
  lv.live_in.assign(n, RegSet(fn.num_regs));
  lv.live_out.assign(n, RegSet(fn.num_regs));
  // Per-block kill (definitions). gen (upward-exposed uses) goes straight
  // into live_in, which contains it in every solution.
  std::vector<RegSet> kill(n, RegSet(fn.num_regs));
  for (std::size_t b = 0; b < n; ++b) {
    for (const Instr& inst : fn.blocks[b].insts) {
      std::array<Reg, 2 + kMaxCallArgs> uses;
      unsigned nu = 0;
      append_uses(inst, uses, nu);
      for (unsigned u = 0; u < nu; ++u)
        if (!kill[b].contains(uses[u])) lv.live_in[b].insert(uses[u]);
      if (has_dst(inst)) kill[b].insert(inst.dst);
    }
  }

  // out = ∪ in[succ], in = gen ∪ (out − kill). Every set starts below the
  // least solution and only grows, so each is updated in place and the
  // sweep stops at exactly that solution.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = n; bi-- > 0;) {
      for (BlockId s : cfg.succs[bi])
        changed |= lv.live_out[bi].merge(lv.live_in[s]);
      changed |= lv.live_in[bi].merge_difference(lv.live_out[bi], kill[bi]);
    }
  }
  return lv;
}

std::vector<double> block_frequencies(const Function& fn) {
  std::vector<double> freq(fn.blocks.size(), 1.0);
  for (const Loop& loop : find_loops(fn))
    for (BlockId b : loop.blocks) freq[b] *= 10.0;
  return freq;
}

}  // namespace ilc::ir
