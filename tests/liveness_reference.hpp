// The per-bit liveness solver that ir::compute_liveness replaced, kept as
// the reference the word-parallel one is tested against: the transfer
// in = gen ∪ (out − kill) runs one register at a time, and every sweep
// recomputes each block's sets from scratch.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "ir/analysis.hpp"

namespace ilc::testref {

inline ir::Liveness reference_liveness(const ir::Function& fn,
                                       const ir::Cfg& cfg) {
  using namespace ir;
  const std::size_t n = fn.blocks.size();
  std::vector<RegSet> gen(n, RegSet(fn.num_regs));
  std::vector<RegSet> kill(n, RegSet(fn.num_regs));
  for (std::size_t b = 0; b < n; ++b) {
    for (const Instr& inst : fn.blocks[b].insts) {
      std::array<Reg, 2 + kMaxCallArgs> uses;
      unsigned nu = 0;
      append_uses(inst, uses, nu);
      for (unsigned u = 0; u < nu; ++u)
        if (!kill[b].contains(uses[u])) gen[b].insert(uses[u]);
      if (has_dst(inst)) kill[b].insert(inst.dst);
    }
  }

  Liveness lv;
  lv.live_in.assign(n, RegSet(fn.num_regs));
  lv.live_out.assign(n, RegSet(fn.num_regs));
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = n; bi-- > 0;) {
      RegSet out(fn.num_regs);
      for (BlockId s : cfg.succs[bi]) out.merge(lv.live_in[s]);
      if (!(out == lv.live_out[bi])) {
        lv.live_out[bi] = out;
        changed = true;
      }
      RegSet in = gen[bi];
      for (Reg r = 0; r < fn.num_regs; ++r)
        if (out.contains(r) && !kill[bi].contains(r)) in.insert(r);
      if (!(in == lv.live_in[bi])) {
        lv.live_in[bi] = in;
        changed = true;
      }
    }
  }
  return lv;
}

/// Expects ir::compute_liveness to agree with the reference on every
/// function and block of `mod`.
inline void expect_liveness_matches_reference(const ir::Module& mod,
                                              const std::string& label) {
  for (const ir::Function& fn : mod.functions()) {
    const ir::Cfg cfg(fn);
    const ir::Liveness got = ir::compute_liveness(fn, cfg);
    const ir::Liveness want = reference_liveness(fn, cfg);
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      EXPECT_TRUE(got.live_in[b] == want.live_in[b])
          << label << " @" << fn.name << " bb" << b << " live_in";
      EXPECT_TRUE(got.live_out[b] == want.live_out[b])
          << label << " @" << fn.name << " bb" << b << " live_out";
    }
  }
}

}  // namespace ilc::testref
