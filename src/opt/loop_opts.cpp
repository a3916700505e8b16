// Loop optimizations: loop-invariant code motion and loop unrolling.
//
// The IR is not SSA, which makes unrolling pleasantly simple: the body is
// cloned verbatim (no renaming), and only the back edges are rewired
// through the copies. LICM is the subtle one — the hoist conditions are
// chosen so they remain sound with multiple definitions per register:
//   (a) the instruction is pure;
//   (b) none of its sources is defined anywhere in the loop;
//   (c) its destination has exactly one definition in the loop (itself);
//   (d) the destination is not live into the loop header (so every in-loop
//       use is dominated by this definition — a use reached around the
//       definition would make the register live-in);
//   (e) the destination is not used outside the loop.
#include <algorithm>

#include "ir/analysis.hpp"
#include "opt/pass.hpp"
#include "support/assert.hpp"

namespace ilc::opt {

using namespace ir;

namespace {

std::vector<unsigned> def_counts_in(const Function& fn, const Loop& loop) {
  std::vector<unsigned> defs(fn.num_regs, 0);
  for (BlockId b : loop.blocks)
    for (const Instr& inst : fn.blocks[b].insts)
      if (has_dst(inst)) defs[inst.dst] += 1;
  return defs;
}

/// Registers read by some block outside the loop.
RegSet used_outside_loop(const Function& fn, const Loop& loop) {
  RegSet used(fn.num_regs);
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (loop.contains(static_cast<BlockId>(b))) continue;
    for (const Instr& inst : fn.blocks[b].insts) {
      std::array<Reg, 2 + kMaxCallArgs> uses;
      unsigned n = 0;
      append_uses(inst, uses, n);
      for (unsigned u = 0; u < n; ++u) used.insert(uses[u]);
    }
  }
  return used;
}

/// Ensure the loop header has a unique out-of-loop predecessor ending in a
/// Jump to the header; create one if needed. Returns its block id, or
/// kNoBlock if the header is the function entry (not handled).
BlockId ensure_preheader(Function& fn, const Loop& loop) {
  if (loop.header == 0) return kNoBlock;
  const Cfg cfg(fn);
  std::vector<BlockId> outside;
  for (BlockId p : cfg.preds[loop.header])
    if (!loop.contains(p)) outside.push_back(p);
  if (outside.empty()) return kNoBlock;  // dead loop
  if (outside.size() == 1) {
    const Instr& t = fn.blocks[outside[0]].terminator();
    if (t.op == Opcode::Jump) return outside[0];
  }
  // Create a fresh preheader and retarget outside edges through it.
  const BlockId pre = fn.new_block();
  Instr j;
  j.op = Opcode::Jump;
  j.t1 = loop.header;
  fn.blocks[pre].insts.push_back(j);
  for (BlockId p : outside) {
    Instr& t = fn.blocks[p].terminator();
    if (t.op == Opcode::Jump && t.t1 == loop.header) t.t1 = pre;
    if (t.op == Opcode::Br) {
      if (t.t1 == loop.header) t.t1 = pre;
      if (t.t2 == loop.header) t.t2 = pre;
    }
  }
  return pre;
}

}  // namespace

bool licm(Function& fn) {
  bool changed = false;
  // Loops are recomputed after a preheader is created: that is the only
  // CFG change here, and it always adds a block.
  std::vector<Loop> loops = find_loops(fn);
  std::size_t loops_found_at = fn.blocks.size();
  for (std::size_t li = 0;; ++li) {
    if (fn.blocks.size() != loops_found_at) {
      loops = find_loops(fn);
      loops_found_at = fn.blocks.size();
    }
    if (li >= loops.size()) break;
    const Loop& loop = loops[li];

    const BlockId pre = ensure_preheader(fn, loop);
    if (pre == kNoBlock) continue;

    std::vector<unsigned> defs = def_counts_in(fn, loop);
    const Cfg cfg(fn);
    const Liveness lv = compute_liveness(fn, cfg);
    // Condition (e) for every candidate of this loop. Hoists add outside
    // uses only of their sources, which have no in-loop definition, and
    // in-loop definition counts never grow; so every register the set
    // misses fails the `defs[dst] == 1` check anyway.
    const RegSet outside = used_outside_loop(fn, loop);

    bool hoisted_any = true;
    while (hoisted_any) {
      hoisted_any = false;
      for (BlockId b : loop.blocks) {
        BasicBlock& bb = fn.blocks[b];
        for (std::size_t i = 0; i + 1 <= bb.insts.size(); ++i) {
          const Instr inst = bb.insts[i];
          if (!is_pure(inst) || !has_dst(inst)) continue;
          if (is_terminator(inst)) continue;
          std::array<Reg, 2 + kMaxCallArgs> uses;
          unsigned n = 0;
          append_uses(inst, uses, n);
          bool srcs_invariant = true;
          for (unsigned u = 0; u < n; ++u)
            if (defs[uses[u]] != 0) srcs_invariant = false;
          if (!srcs_invariant) continue;
          if (defs[inst.dst] != 1) continue;
          if (lv.live_in[loop.header].contains(inst.dst)) continue;
          if (outside.contains(inst.dst)) continue;

          // Hoist: insert before the preheader's terminator.
          BasicBlock& ph = fn.blocks[pre];
          ph.insts.insert(ph.insts.end() - 1, inst);
          bb.insts.erase(bb.insts.begin() + static_cast<long>(i));
          defs[inst.dst] = 0;
          hoisted_any = true;
          changed = true;
          --i;
        }
      }
    }
  }
  return changed;
}

namespace {

constexpr std::size_t kMaxUnrollBody = 48;    // instructions
constexpr std::size_t kMaxUnrolledSize = 240;  // factor * body cap

bool is_innermost(const Loop& loop, const std::vector<Loop>& all) {
  for (const Loop& other : all) {
    if (other.header == loop.header) continue;
    if (loop.contains(other.header)) return false;
  }
  return true;
}

std::size_t loop_size(const Function& fn, const Loop& loop) {
  std::size_t n = 0;
  for (BlockId b : loop.blocks) n += fn.blocks[b].insts.size();
  return n;
}

}  // namespace

namespace {

/// Core transform: duplicate `loop`'s body factor-1 times and rewire the
/// back edges through the copies. Assumes eligibility already checked.
void unroll_one(Function& fn, const Loop& loop, unsigned factor) {
    // Snapshot the pristine body before any rewiring.
    std::vector<std::pair<BlockId, BasicBlock>> pristine;
    for (BlockId b : loop.blocks) pristine.emplace_back(b, fn.blocks[b]);

    // Allocate clone ids: clone_map[j][original] for j in 0..factor-2.
    std::vector<std::vector<std::pair<BlockId, BlockId>>> clone_map(
        factor - 1);
    for (unsigned j = 0; j + 1 < factor; ++j)
      for (BlockId b : loop.blocks)
        clone_map[j].emplace_back(b, fn.new_block());

    auto mapped = [&](unsigned j, BlockId b) {
      for (const auto& [orig, clone] : clone_map[j])
        if (orig == b) return clone;
      return kNoBlock;
    };

    // `next_header(j)`: where copy j's back edge goes.
    auto next_header = [&](unsigned j) {
      return j + 1 < factor - 1 ? mapped(j + 1, loop.header) : loop.header;
    };

    // Fill clones.
    for (unsigned j = 0; j + 1 < factor; ++j) {
      for (const auto& [orig, bbody] : pristine) {
        BasicBlock clone = bbody;
        Instr& t = clone.terminator();
        auto rewire = [&](BlockId& target) {
          if (target == loop.header) {
            target = next_header(j);
          } else if (loop.contains(target)) {
            target = mapped(j, target);
          }  // exits stay as-is
        };
        if (t.op == Opcode::Jump) rewire(t.t1);
        if (t.op == Opcode::Br) {
          rewire(t.t1);
          rewire(t.t2);
        }
        fn.blocks[mapped(j, orig)] = std::move(clone);
      }
    }

    // Rewire the original body's back edges into copy 0.
    const BlockId first_copy_header = mapped(0, loop.header);
    for (BlockId b : loop.blocks) {
      Instr& t = fn.blocks[b].terminator();
      if (t.op == Opcode::Jump && t.t1 == loop.header)
        t.t1 = first_copy_header;
      if (t.op == Opcode::Br) {
        if (t.t1 == loop.header) t.t1 = first_copy_header;
        if (t.t2 == loop.header) t.t2 = first_copy_header;
      }
    }
}

bool eligible_for_unroll(const Function& fn, const Loop& loop,
                         const std::vector<Loop>& all, unsigned factor) {
  if (!is_innermost(loop, all)) return false;
  const std::size_t body = loop_size(fn, loop);
  return body <= kMaxUnrollBody && body * factor <= kMaxUnrolledSize;
}

}  // namespace

bool unroll_loops(Function& fn, unsigned factor) {
  ILC_CHECK(factor >= 2);
  const auto loops = find_loops(fn);
  bool changed = false;
  for (const Loop& loop : loops) {
    if (!eligible_for_unroll(fn, loop, loops, factor)) continue;
    unroll_one(fn, loop, factor);
    changed = true;
  }
  return changed;
}

bool unroll_single_loop(Function& fn, BlockId header, unsigned factor) {
  ILC_CHECK(factor >= 2);
  const auto loops = find_loops(fn);
  for (const Loop& loop : loops) {
    if (loop.header != header) continue;
    if (!eligible_for_unroll(fn, loop, loops, factor)) return false;
    unroll_one(fn, loop, factor);
    return true;
  }
  return false;
}

}  // namespace ilc::opt
