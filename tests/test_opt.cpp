// Optimizer correctness: the central property suite. For every pass and
// every workload, the optimized module must (a) verify and (b) return the
// same checksum — plus targeted unit tests of each transformation and
// fuzzed random pass sequences (the same population Fig. 2 searches over).
#include <gtest/gtest.h>

#include <map>

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/fingerprint.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "liveness_reference.hpp"
#include "opt/pass.hpp"
#include "opt/pipelines.hpp"
#include "sim/interpreter.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;
using namespace ilc::ir;
using opt::PassId;

std::int64_t run_checksum(const Module& m) {
  sim::Simulator s(m, sim::amd_like());
  return s.run().ret;
}

// --- every pass preserves semantics on every workload -------------------

struct PassWorkloadCase {
  std::string workload;
  unsigned pass;
};

class PassPreservation
    : public ::testing::TestWithParam<PassWorkloadCase> {};

TEST_P(PassPreservation, ChecksumAndVerifierInvariant) {
  const auto& param = GetParam();
  wl::Workload w = wl::make_workload(param.workload);
  const auto id = static_cast<PassId>(param.pass);
  opt::run_pass(id, w.module);
  ASSERT_EQ(verify(w.module), "") << opt::pass_name(id);
  EXPECT_EQ(run_checksum(w.module), w.expected_checksum)
      << opt::pass_name(id) << " broke " << param.workload;
}

std::vector<PassWorkloadCase> all_pass_workload_cases() {
  std::vector<PassWorkloadCase> cases;
  for (const auto& name : wl::workload_names())
    for (unsigned p = 0; p < opt::kNumPasses; ++p)
      cases.push_back({name, p});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPassesAllWorkloads, PassPreservation,
    ::testing::ValuesIn(all_pass_workload_cases()),
    [](const ::testing::TestParamInfo<PassWorkloadCase>& info) {
      return info.param.workload + "_" +
             opt::pass_name(static_cast<PassId>(info.param.pass));
    });

// --- random sequences (the Fig. 2 population) ---------------------------

class SequenceFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SequenceFuzz, RandomLength5SequencePreservesSemantics) {
  support::Rng rng(1000 + GetParam());
  // All 16 passes; mirror the paper's constraint that unrolling appears
  // at most once.
  std::vector<PassId> seq;
  bool used_unroll = false;
  while (seq.size() < 5) {
    const auto id = static_cast<PassId>(rng.next_below(opt::kNumPasses));
    if (opt::is_unroll(id)) {
      if (used_unroll) continue;
      used_unroll = true;
    }
    seq.push_back(id);
  }
  for (const auto& name : wl::workload_names()) {
    wl::Workload w = wl::make_workload(name);
    opt::run_sequence(w.module, seq);
    ASSERT_EQ(verify(w.module), "") << name;
    EXPECT_EQ(run_checksum(w.module), w.expected_checksum) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SequenceFuzz, ::testing::Range(0, 12));

// --- byte identity of optimizer output -----------------------------------
//
// Optimized modules are part of the system's persisted identity: the
// evaluator memo and the KB key are ir::fingerprint values of optimized
// code. Each workload's digest covers, for seeded random sequences over
// all 16 passes (lengths 1-10) plus FAST, the printed IR, the
// fingerprint, run_sequence's changed count and the ir::verify result.
// A change that alters what any pass emits must re-record these values
// knowingly; a pure speed-up must leave them alone.

constexpr int kDigestSequences = 64;

/// A random sequence over all 16 passes with min_len..max_len entries.
std::vector<PassId> random_sequence(support::Rng& rng, unsigned min_len,
                                    unsigned max_len) {
  std::vector<PassId> seq(min_len + rng.next_below(max_len - min_len + 1));
  for (PassId& id : seq)
    id = static_cast<PassId>(rng.next_below(opt::kNumPasses));
  return seq;
}

std::uint64_t optimizer_output_digest(const std::string& workload) {
  const wl::Workload w = wl::make_workload(workload);
  support::Rng rng(support::hash_bytes(workload.data(), workload.size()));
  support::Hasher h;
  auto absorb = [&](const std::vector<PassId>& seq) {
    Module m = w.module;
    const unsigned changed = opt::run_sequence(m, seq);
    h.str(to_string(m));
    h.pod(fingerprint(m));
    h.pod(changed);
    h.str(verify(m));
  };
  for (int i = 0; i < kDigestSequences; ++i)
    absorb(random_sequence(rng, 1, 10));
  absorb(opt::fast_pipeline());
  return h.digest();
}

const std::map<std::string, std::uint64_t> kRecordedDigests = {
    {"adpcm", 0x2fb37786a25dad15ULL},
    {"mcf_lite", 0xf677a4719bd27634ULL},
    {"matmul", 0xe56728dd96fc073ULL},
    {"fir", 0x55f3d31bdc7c5e69ULL},
    {"crc32", 0x1f87bbda030536f8ULL},
    {"dijkstra", 0x448dd6d1fd03aa68ULL},
    {"histogram", 0xdc30106184a64d85ULL},
    {"stencil", 0x453a4a9d5a02056eULL},
    {"shellsort", 0x5a0eb5c8470b3c2aULL},
    {"strsearch", 0xa7ce55d2ca1062eeULL},
    {"sha_lite", 0x24d5cc44189ad4adULL},
    {"rle", 0x74f8fa90679d4bfaULL},
    {"bitcount", 0x1c5b63b3f34ec30cULL},
    {"dotprod", 0x8e678d8aa8be5da4ULL},
    {"linklist", 0x10703c30fb3eb992ULL},
    {"treewalk", 0x10f84ed46b0b967ULL},
    {"phased_mix", 0xe9c2fc4741356568ULL},
};

class OptimizerOutputIdentity
    : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerOutputIdentity, MatchesRecordedDigest) {
  const std::uint64_t got = optimizer_output_digest(GetParam());
  const auto it = kRecordedDigests.find(GetParam());
  ASSERT_NE(it, kRecordedDigests.end()) << std::hex << "digest 0x" << got;
  EXPECT_EQ(got, it->second) << std::hex << "digest 0x" << got;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OptimizerOutputIdentity,
                         ::testing::ValuesIn(wl::workload_names()),
                         [](const auto& info) { return info.param; });

TEST(Liveness, MatchesPerBitReferenceAfterRandomSequences) {
  support::Rng rng(2008);
  for (const auto& name : wl::workload_names()) {
    const wl::Workload w = wl::make_workload(name);
    for (int i = 0; i < 12; ++i) {
      Module m = w.module;
      opt::run_sequence(m, random_sequence(rng, 0, 10));
      testref::expect_liveness_matches_reference(m, name);
    }
  }
}

// --- LICM against its per-candidate reference ----------------------------
//
// opt::licm takes condition (e), "not used outside the loop", from one set
// per loop. The form below is the one it replaced: it rescans the function
// for every candidate. Both must hoist exactly the same instructions.

bool reference_used_outside_loop(const Function& fn, const Loop& loop,
                                 Reg r) {
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (loop.contains(static_cast<BlockId>(b))) continue;
    for (const Instr& inst : fn.blocks[b].insts) {
      std::array<Reg, 2 + kMaxCallArgs> uses;
      unsigned n = 0;
      append_uses(inst, uses, n);
      for (unsigned u = 0; u < n; ++u)
        if (uses[u] == r) return true;
    }
  }
  return false;
}

BlockId reference_ensure_preheader(Function& fn, const Loop& loop) {
  if (loop.header == 0) return kNoBlock;
  const Cfg cfg(fn);
  std::vector<BlockId> outside;
  for (BlockId p : cfg.preds[loop.header])
    if (!loop.contains(p)) outside.push_back(p);
  if (outside.empty()) return kNoBlock;
  if (outside.size() == 1 &&
      fn.blocks[outside[0]].terminator().op == Opcode::Jump)
    return outside[0];
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

bool reference_licm(Function& fn) {
  bool changed = false;
  for (std::size_t li = 0;; ++li) {
    const auto loops = find_loops(fn);
    if (li >= loops.size()) break;
    const Loop& loop = loops[li];
    const BlockId pre = reference_ensure_preheader(fn, loop);
    if (pre == kNoBlock) continue;

    std::vector<unsigned> defs(fn.num_regs, 0);
    for (BlockId b : loop.blocks)
      for (const Instr& inst : fn.blocks[b].insts)
        if (has_dst(inst)) defs[inst.dst] += 1;
    const Cfg cfg(fn);
    const Liveness lv = testref::reference_liveness(fn, cfg);

    bool hoisted_any = true;
    while (hoisted_any) {
      hoisted_any = false;
      for (BlockId b : loop.blocks) {
        BasicBlock& bb = fn.blocks[b];
        for (std::size_t i = 0; i < bb.insts.size(); ++i) {
          const Instr inst = bb.insts[i];
          if (!is_pure(inst) || !has_dst(inst) || is_terminator(inst))
            continue;
          std::array<Reg, 2 + kMaxCallArgs> uses;
          unsigned n = 0;
          append_uses(inst, uses, n);
          bool srcs_invariant = true;
          for (unsigned u = 0; u < n; ++u)
            if (defs[uses[u]] != 0) srcs_invariant = false;
          if (!srcs_invariant || defs[inst.dst] != 1) continue;
          if (lv.live_in[loop.header].contains(inst.dst)) continue;
          if (reference_used_outside_loop(fn, loop, inst.dst)) continue;
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

/// opt::licm and the reference on copies of every function of `mod`.
void expect_licm_matches_reference(const Module& mod,
                                   const std::string& label) {
  Module got = mod, want = mod;
  for (std::size_t f = 0; f < mod.functions().size(); ++f) {
    const auto id = static_cast<FuncId>(f);
    EXPECT_EQ(opt::licm(got.function(id)), reference_licm(want.function(id)))
        << label << " @" << mod.function(id).name;
  }
  EXPECT_EQ(to_string(got), to_string(want)) << label;
}

TEST(Licm, NestedLoopsWithChainedHoistsMatchPerCandidateReference) {
  // for i < 10 { for j < 5 { acc += 2*(x*7) + (i*x + x); y = x*x }
  //              y = 2; acc += y }
  Module m;
  FunctionBuilder b(m, "main", 1);
  const Reg x = b.arg(0);
  const Reg acc = b.fresh(), i = b.fresh(), j = b.fresh(), y = b.fresh();
  b.imm_to(acc, 0);
  b.imm_to(i, 0);
  const BlockId outer = b.new_block(), outer_body = b.new_block(),
                inner = b.new_block(), inner_body = b.new_block(),
                latch = b.new_block(), exit = b.new_block();
  b.jump(outer);
  b.switch_to(outer);
  b.br(b.cmp_lt(i, b.imm(10)), outer_body, exit);
  b.switch_to(outer_body);
  b.imm_to(j, 0);
  b.jump(inner);
  b.switch_to(inner);
  b.br(b.cmp_lt(j, b.imm(5)), inner_body, latch);
  b.switch_to(inner_body);
  // Invariant in both loops, each hoist feeding the next: 7, then x*7
  // (reads it), then the sum (reads that).
  const Reg u = b.add(b.mul(x, b.imm(7)), b.mul(x, b.imm(7)));
  // Invariant in the inner loop only, since i changes in the outer one:
  // i*x, then +x (reads it), then u + v (reads that and u).
  const Reg v = b.add(b.mul(i, x), x);
  b.mov_to(acc, b.add(acc, b.add(u, v)));
  // Invariant, but y is read outside the inner loop (in the latch) and
  // defined twice in the outer one, so it stays.
  b.mov_to(y, b.mul(x, x));
  b.mov_to(j, b.add_i(j, 1));
  b.jump(inner);
  b.switch_to(latch);
  b.imm_to(y, 2);
  b.mov_to(acc, b.add(acc, y));
  b.mov_to(i, b.add_i(i, 1));
  b.jump(outer);
  b.switch_to(exit);
  b.ret(acc);
  b.finish();
  ASSERT_EQ(verify(m), "");

  expect_licm_matches_reference(m, "nested");
  Module hoisted = m;
  ASSERT_TRUE(opt::licm(hoisted.function(0)));
  // Left in the inner body: the acc update (add, mov), y's copy, the j
  // update (add, mov) and the jump.
  const auto& body = hoisted.function(0).blocks[inner_body].insts;
  EXPECT_EQ(body.size(), 6u) << to_string(hoisted);
  bool y_in_body = false;
  for (const Instr& inst : body) y_in_body |= has_dst(inst) && inst.dst == y;
  EXPECT_TRUE(y_in_body);
  sim::Simulator s(hoisted, sim::amd_like());
  EXPECT_EQ(s.call("main", {3}).ret, 5 * (10 * 45 + 3 * 45) + 10 * 2);
}

TEST(Licm, RefindsLoopsAfterAPreheaderLandsInsideAnotherLoop) {
  // The inner loop's header has the lower block id, so it is visited
  // first, and its preheader is created inside the outer loop (the outer
  // body ends in a branch). The outer loop must then see that block: r
  // gains a second in-loop definition there and may not be hoisted.
  // for i < 10 { r = 3; acc += r; if (0 < x) for j < 5 { r = 7; acc += r } }
  Module m;
  FunctionBuilder b(m, "main", 1);
  const Reg x = b.arg(0);
  const Reg acc = b.fresh(), i = b.fresh(), j = b.fresh(), r = b.fresh();
  b.imm_to(acc, 0);
  b.imm_to(i, 0);
  const BlockId inner = b.new_block(), inner_body = b.new_block(),
                outer = b.new_block(), outer_body = b.new_block(),
                latch = b.new_block(), exit = b.new_block();
  b.jump(outer);
  b.switch_to(outer);
  b.br(b.cmp_lt(i, b.imm(10)), outer_body, exit);
  b.switch_to(outer_body);
  b.imm_to(r, 3);
  b.mov_to(acc, b.add(acc, r));
  b.imm_to(j, 0);
  b.br(b.cmp_lt(j, x), inner, latch);
  b.switch_to(inner);
  b.br(b.cmp_lt(j, b.imm(5)), inner_body, latch);
  b.switch_to(inner_body);
  b.imm_to(r, 7);
  b.mov_to(acc, b.add(acc, r));
  b.mov_to(j, b.add_i(j, 1));
  b.jump(inner);
  b.switch_to(latch);
  b.mov_to(i, b.add_i(i, 1));
  b.jump(outer);
  b.switch_to(exit);
  b.ret(acc);
  b.finish();
  ASSERT_EQ(verify(m), "");
  ASSERT_LT(inner, outer);

  expect_licm_matches_reference(m, "inner header first");
  Module hoisted = m;
  ASSERT_TRUE(opt::licm(hoisted.function(0)));
  EXPECT_EQ(hoisted.function(0).blocks.size(), m.function(0).blocks.size() + 1);
  sim::Simulator s(hoisted, sim::amd_like());
  EXPECT_EQ(s.call("main", {3}).ret, 10 * (3 + 5 * 7));
}

TEST(Licm, MatchesPerCandidateReferenceAfterRandomSequences) {
  support::Rng rng(1987);
  for (const auto& name : wl::workload_names()) {
    const wl::Workload w = wl::make_workload(name);
    for (int i = 0; i < 12; ++i) {
      Module m = w.module;
      opt::run_sequence(m, random_sequence(rng, 0, 6));
      expect_licm_matches_reference(m, name);
    }
  }
}

TEST(Pipelines, FastPipelinePreservesEveryWorkload) {
  for (const auto& name : wl::workload_names()) {
    wl::Workload w = wl::make_workload(name);
    opt::run_sequence(w.module, opt::fast_pipeline());
    ASSERT_EQ(verify(w.module), "") << name;
    EXPECT_EQ(run_checksum(w.module), w.expected_checksum) << name;
  }
}

TEST(Pipelines, FastActuallySpeedsUpTheSuite) {
  // The sanity bar for the whole optimizer: FAST must beat -O0 broadly.
  unsigned wins = 0, total = 0;
  for (const auto& name : wl::workload_names()) {
    wl::Workload base = wl::make_workload(name);
    wl::Workload fast = wl::make_workload(name);
    opt::run_sequence(fast.module, opt::fast_pipeline());
    sim::Simulator s0(base.module, sim::amd_like());
    sim::Simulator s1(fast.module, sim::amd_like());
    const auto c0 = s0.run().cycles;
    const auto c1 = s1.run().cycles;
    ++total;
    if (c1 < c0) ++wins;
  }
  EXPECT_GE(wins * 100, total * 75)
      << "FAST should speed up at least 75% of the suite";
}

TEST(Pipelines, FlagEncodingRoundTrips) {
  support::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto bits =
        static_cast<std::uint32_t>(rng.next_below(opt::OptFlags::kEncodings));
    const opt::OptFlags f = opt::OptFlags::decode(bits);
    EXPECT_EQ(opt::OptFlags::decode(f.encode()), f);
  }
  EXPECT_EQ(opt::o0_flags().to_string(), "O0");
  EXPECT_NE(opt::fast_flags().to_string().find("unroll4"), std::string::npos);
}

// --- targeted per-pass unit tests ----------------------------------------

TEST(ConstProp, FoldsAcrossBlocks) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(21);
  BlockId next = b.new_block();
  b.jump(next);
  b.switch_to(next);
  Reg y = b.mul(x, b.imm(2));
  b.ret(y);
  b.finish();
  EXPECT_TRUE(opt::const_prop(m.function(0), m));
  // The multiply must have become a LoadImm 42.
  bool found = false;
  for (const auto& bb : m.function(0).blocks)
    for (const auto& inst : bb.insts)
      if (inst.op == Opcode::LoadImm && inst.imm == 42) found = true;
  EXPECT_TRUE(found);
  EXPECT_EQ(run_checksum(m), 42);
}

TEST(ConstProp, FoldsConstantBranches) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg c = b.imm(1);
  BlockId t = b.new_block(), f = b.new_block();
  b.br(c, t, f);
  b.switch_to(t);
  b.ret(b.imm(10));
  b.switch_to(f);
  b.ret(b.imm(20));
  b.finish();
  EXPECT_TRUE(opt::const_prop(m.function(0), m));
  EXPECT_EQ(m.function(0).blocks[0].terminator().op, Opcode::Jump);
  EXPECT_EQ(run_checksum(m), 10);
}

TEST(ConstProp, KeepsMergePointsConservative) {
  // x is 1 on one path and 2 on the other: must NOT fold the use.
  Module m;
  FunctionBuilder b(m, "main", 1);
  Reg x = b.fresh();
  BlockId t = b.new_block(), f = b.new_block(), join = b.new_block();
  b.br(b.arg(0), t, f);
  b.switch_to(t);
  b.imm_to(x, 1);
  b.jump(join);
  b.switch_to(f);
  b.imm_to(x, 2);
  b.jump(join);
  b.switch_to(join);
  b.ret(b.mul_i(x, 10));
  b.finish();
  opt::const_prop(m.function(0), m);
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {1}).ret, 10);
  EXPECT_EQ(s.call("main", {0}).ret, 20);
}

TEST(ConstProp, DoesNotFoldTaggedImmediates) {
  Module m;
  RecordType t;
  t.fields = {{"p", FieldKind::Ptr}, {"v", FieldKind::I64}};
  const RecordId rec = m.add_record(t);
  Global g;
  g.name = "cells";
  g.kind = GlobalKind::RecordArray;
  g.record = rec;
  g.count = 4;
  const GlobalId gid = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg addr = b.record_elem_addr(gid, b.imm(2));
  b.ret(b.load_field(addr, rec, 1));
  b.finish();
  opt::const_prop(m.function(0), m);
  // The tagged stride LoadImm must survive so PtrCompress can re-patch it.
  bool tagged_alive = false;
  for (const auto& bb : m.function(0).blocks)
    for (const auto& inst : bb.insts)
      if (inst.tag == ImmTag::RecordStride) tagged_alive = true;
  EXPECT_TRUE(tagged_alive);
  // And the whole thing still composes with compression.
  opt::compress_pointers(m);
  opt::const_prop(m.function(0), m);
  EXPECT_EQ(verify(m), "");
}

TEST(CopyProp, RewritesThroughCopies) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(5);
  Reg y = b.mov(x);
  Reg z = b.mov(y);
  b.ret(b.add(z, z));
  b.finish();
  EXPECT_TRUE(opt::copy_prop(m.function(0)));
  const Instr& add = m.function(0).blocks[0].insts[3];
  EXPECT_EQ(add.a, x);
  EXPECT_EQ(add.b, x);
  EXPECT_EQ(run_checksum(m), 10);
}

TEST(CopyProp, StopsAtRedefinition) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.fresh();
  b.imm_to(x, 5);
  Reg y = b.mov(x);
  b.imm_to(x, 9);          // x redefined: y must NOT alias x anymore
  b.ret(b.add(y, x));      // 5 + 9
  b.finish();
  opt::copy_prop(m.function(0));
  EXPECT_EQ(run_checksum(m), 14);
}

TEST(Cse, ReusesPureExpressions) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(6);
  Reg y = b.imm(7);
  Reg a = b.mul(x, y);
  Reg c = b.mul(x, y);  // duplicate
  b.ret(b.add(a, c));
  b.finish();
  EXPECT_TRUE(opt::local_cse(m.function(0)));
  EXPECT_EQ(m.function(0).blocks[0].insts[3].op, Opcode::Mov);
  EXPECT_EQ(run_checksum(m), 84);
}

TEST(Cse, CommutativeOperandsMatch) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(6);
  Reg y = b.imm(7);
  Reg a = b.add(x, y);
  Reg c = b.add(y, x);  // same value, swapped operands
  b.ret(b.sub(a, c));
  b.finish();
  EXPECT_TRUE(opt::local_cse(m.function(0)));
  EXPECT_EQ(run_checksum(m), 0);
}

TEST(Cse, LoadsInvalidatedByStores) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 1;
  g.init = {5};
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg base = b.global_addr(buf);
  Reg v1 = b.load(base, 0, MemWidth::W8);
  b.store(base, 0, b.imm(9), MemWidth::W8);
  Reg v2 = b.load(base, 0, MemWidth::W8);  // must NOT be CSE'd with v1
  b.ret(b.add(v1, v2));
  b.finish();
  opt::local_cse(m.function(0));
  EXPECT_EQ(run_checksum(m), 14);
}

TEST(Cse, RedundantLoadsWithoutInterveningStoreMerge) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 1;
  g.init = {5};
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg base = b.global_addr(buf);
  Reg v1 = b.load(base, 0, MemWidth::W8);
  Reg v2 = b.load(base, 0, MemWidth::W8);
  b.ret(b.add(v1, v2));
  b.finish();
  EXPECT_TRUE(opt::local_cse(m.function(0)));
  EXPECT_EQ(run_checksum(m), 10);
}

TEST(Dce, RemovesDeadChainsKeepsStores) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 1;
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg dead1 = b.imm(1);
  Reg dead2 = b.add(dead1, dead1);  // feeds nothing live
  (void)dead2;
  Reg base = b.global_addr(buf);
  b.store(base, 0, b.imm(3), MemWidth::W8);
  b.ret(b.load(base, 0, MemWidth::W8));
  b.finish();
  const std::size_t before = m.function(0).size();
  EXPECT_TRUE(opt::dce(m.function(0)));
  EXPECT_LT(m.function(0).size(), before);
  EXPECT_EQ(run_checksum(m), 3);
}

TEST(SimplifyCfg, MergesStraightLineChains) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(4);
  BlockId b1 = b.new_block(), b2 = b.new_block();
  b.jump(b1);
  b.switch_to(b1);
  Reg y = b.add_i(x, 1);
  b.jump(b2);
  b.switch_to(b2);
  b.ret(y);
  b.finish();
  EXPECT_TRUE(opt::simplify_cfg(m.function(0)));
  EXPECT_EQ(m.function(0).blocks.size(), 1u);
  EXPECT_EQ(run_checksum(m), 5);
}

TEST(SimplifyCfg, RemovesUnreachableBlocks) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  b.ret(b.imm(1));
  BlockId orphan = b.new_block();
  b.switch_to(orphan);
  b.ret(b.imm(2));
  b.finish();
  EXPECT_TRUE(opt::simplify_cfg(m.function(0)));
  EXPECT_EQ(m.function(0).blocks.size(), 1u);
}

TEST(Licm, HoistsInvariantComputation) {
  Module m;
  FunctionBuilder b(m, "main", 1);
  Reg bound = b.imm(100);
  Reg acc = b.fresh();
  b.imm_to(acc, 0);
  Reg i = b.fresh();
  b.imm_to(i, 0);
  BlockId head = b.new_block(), body = b.new_block(), exit = b.new_block();
  b.jump(head);
  b.switch_to(head);
  b.br(b.cmp_lt(i, bound), body, exit);
  b.switch_to(body);
  Reg inv = b.mul(b.arg(0), b.arg(0));  // invariant
  b.mov_to(acc, b.add(acc, inv));
  b.mov_to(i, b.add_i(i, 1));
  b.jump(head);
  b.switch_to(exit);
  b.ret(acc);
  b.finish();

  EXPECT_TRUE(opt::licm(m.function(0)));
  // The multiply must now be outside the loop.
  const auto loops = find_loops(m.function(0));
  ASSERT_FALSE(loops.empty());
  for (BlockId lb : loops[0].blocks)
    for (const Instr& inst : m.function(0).blocks[lb].insts)
      EXPECT_NE(inst.op, Opcode::Mul);
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {3}).ret, 900);
}

TEST(Licm, DoesNotHoistVariantComputation) {
  wl::Workload w = wl::make_workload("fir");
  const std::uint64_t before = fingerprint(w.module);
  opt::licm(w.module.function(w.module.find_function("main")));
  // Whatever LICM did, semantics must hold (checksum check), and variant
  // loads must still be in the loop: checksum is the strong check here.
  (void)before;
  EXPECT_EQ(run_checksum(w.module), w.expected_checksum);
}

TEST(StrengthRed, MulByPowerOfTwoBecomesShift) {
  Module m;
  FunctionBuilder b(m, "main", 1);
  b.ret(b.mul(b.arg(0), b.imm(8)));
  b.finish();
  EXPECT_TRUE(opt::strength_reduce(m.function(0)));
  bool has_shl = false, has_mul = false;
  for (const auto& inst : m.function(0).blocks[0].insts) {
    has_shl |= inst.op == Opcode::Shl;
    has_mul |= inst.op == Opcode::Mul;
  }
  EXPECT_TRUE(has_shl);
  EXPECT_FALSE(has_mul);
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {5}).ret, 40);
  EXPECT_EQ(s.call("main", {-5}).ret, -40);
}

TEST(StrengthRed, MulBy9BecomesShiftAdd) {
  Module m;
  FunctionBuilder b(m, "main", 1);
  b.ret(b.mul(b.imm(9), b.arg(0)));
  b.finish();
  EXPECT_TRUE(opt::strength_reduce(m.function(0)));
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {7}).ret, 63);
}

TEST(Peephole, AlgebraicIdentities) {
  Module m;
  FunctionBuilder b(m, "main", 1);
  Reg zero = b.imm(0);
  Reg a = b.add(b.arg(0), zero);   // x + 0
  Reg c = b.xor_(a, a);            // x ^ x = 0
  Reg d = b.or_(c, b.arg(0));      // 0 | x
  b.ret(d);
  b.finish();
  EXPECT_TRUE(opt::peephole(m.function(0)));
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("main", {123}).ret, 123);
}

TEST(Inline, LeafCallDisappears) {
  Module m;
  FuncId leaf;
  {
    FunctionBuilder b(m, "sq", 1);
    b.ret(b.mul(b.arg(0), b.arg(0)));
    leaf = b.finish();
  }
  {
    FunctionBuilder b(m, "main", 0);
    Reg r = b.call(leaf, {b.imm(6)});
    b.ret(r);
    b.finish();
  }
  EXPECT_TRUE(opt::inline_calls(m));
  for (const auto& bb : m.function(m.find_function("main")).blocks)
    for (const auto& inst : bb.insts) EXPECT_NE(inst.op, Opcode::Call);
  EXPECT_EQ(verify(m), "");
  EXPECT_EQ(run_checksum(m), 36);
}

TEST(Inline, FrameOffsetsDoNotCollide) {
  Module m;
  FuncId leaf;
  {
    FunctionBuilder b(m, "spill", 1, 8);
    Reg slot = b.frame_addr(0);
    b.store(slot, 0, b.arg(0), MemWidth::W8);
    b.ret(b.load(slot, 0, MemWidth::W8));
    leaf = b.finish();
  }
  {
    FunctionBuilder b(m, "main", 0, 8);
    Reg slot = b.frame_addr(0);
    b.store(slot, 0, b.imm(100), MemWidth::W8);
    Reg r = b.call(leaf, {b.imm(42)});
    b.ret(b.add(r, b.load(slot, 0, MemWidth::W8)));
    b.finish();
  }
  EXPECT_TRUE(opt::inline_calls(m));
  EXPECT_EQ(verify(m), "");
  EXPECT_EQ(run_checksum(m), 142);
}

TEST(Inline, RecursionNotInlined) {
  Module m;
  FunctionBuilder b(m, "fib", 1);
  Reg n = b.arg(0);
  BlockId base = b.new_block(), rec = b.new_block();
  b.br(b.cmp_lt_i(n, 2), base, rec);
  b.switch_to(base);
  b.ret(n);
  b.switch_to(rec);
  Reg f1 = b.call(0, {b.sub_i(n, 1)});
  Reg f2 = b.call(0, {b.sub_i(n, 2)});
  b.ret(b.add(f1, f2));
  b.finish();
  EXPECT_FALSE(opt::inline_calls(m));
}

TEST(Schedule, SeparatesProducerFromConsumer) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg a = b.imm(3);
  Reg c = b.mul(a, a);      // long latency
  Reg d = b.add(c, a);      // depends on c
  Reg e = b.imm(50);        // independent work
  Reg f = b.imm(60);
  b.ret(b.add(d, b.add(e, f)));
  b.finish();
  wl::Workload w;  // unused
  (void)w;
  Module before = m;
  const bool changed = opt::schedule_blocks(m.function(0));
  EXPECT_EQ(run_checksum(m), run_checksum(before));
  if (changed) {
    sim::Simulator s1(before, sim::amd_like());
    sim::Simulator s2(m, sim::amd_like());
    EXPECT_LE(s2.run().cycles, s1.run().cycles);
  }
}

TEST(Unroll, DuplicatesInnermostBody) {
  wl::Workload w = wl::make_workload("fir");
  Function& fn = w.module.function(w.module.find_function("main"));
  const std::size_t before = fn.size();
  EXPECT_TRUE(opt::unroll_loops(fn, 4));
  EXPECT_GT(fn.size(), 2 * before / 1);  // substantially larger code
  EXPECT_EQ(verify(w.module), "");
  EXPECT_EQ(run_checksum(w.module), w.expected_checksum);
}

TEST(Unroll, ComposesWithSimplifyAndScheduleForSpeed) {
  wl::Workload base = wl::make_workload("fir");
  wl::Workload opt_w = wl::make_workload("fir");
  Function& fn = opt_w.module.function(opt_w.module.find_function("main"));
  opt::unroll_loops(fn, 4);
  opt::simplify_cfg(fn);
  opt::schedule_blocks(fn);
  EXPECT_EQ(run_checksum(opt_w.module), base.expected_checksum);
  sim::Simulator s0(base.module, sim::amd_like());
  sim::Simulator s1(opt_w.module, sim::amd_like());
  EXPECT_LT(s1.run().cycles, s0.run().cycles);
}

TEST(Prefetch, HelpsStreamsHurtsChases) {
  // Streaming phase benefits; mcf's pointer chase must not.
  wl::Workload stream = wl::make_workload("dotprod");
  wl::Workload pf = wl::make_workload("dotprod");
  for (auto& fn : pf.module.functions()) opt::insert_prefetch(fn);
  EXPECT_EQ(run_checksum(pf.module), stream.expected_checksum);
  sim::Simulator s0(stream.module, sim::amd_like());
  sim::Simulator s1(pf.module, sim::amd_like());
  const auto base_cycles = s0.run().cycles;
  const auto pf_cycles = s1.run().cycles;
  EXPECT_LT(pf_cycles, base_cycles) << "prefetch should help streaming";
}

TEST(PtrCompress, ShrinksMcfWorkingSetAndCutsMisses) {
  wl::Workload base = wl::make_workload("mcf_lite");
  wl::Workload comp = wl::make_workload("mcf_lite");
  EXPECT_TRUE(opt::compress_pointers(comp.module));
  EXPECT_FALSE(opt::compress_pointers(comp.module));  // idempotent
  ASSERT_EQ(verify(comp.module), "");
  EXPECT_EQ(run_checksum(comp.module), base.expected_checksum);

  sim::Simulator s0(base.module, sim::amd_like());
  sim::Simulator s1(comp.module, sim::amd_like());
  const auto r0 = s0.run();
  const auto r1 = s1.run();
  EXPECT_LT(r1.counters[sim::L1_TCM], r0.counters[sim::L1_TCM]);
  EXPECT_LT(r1.counters[sim::L2_TCA], r0.counters[sim::L2_TCA]);
  EXPECT_LT(r1.cycles, r0.cycles);
}

TEST(Reassoc, BalancesLongChainAndSpeedsUpDualIssue) {
  // acc = ((((((a+b)+c)+d)+e)+f)+g)+h — serial depth 7; balanced depth 3.
  auto build = [] {
    Module m;
    FunctionBuilder b(m, "main", 0);
    std::vector<Reg> leaves;
    for (int i = 0; i < 8; ++i) leaves.push_back(b.imm(i + 1));
    Reg acc = leaves[0];
    for (int i = 1; i < 8; ++i) acc = b.add(acc, leaves[i]);
    // Pad with an independent long chain so the block isn't issue-bound.
    Reg pad = b.imm(100);
    for (int i = 0; i < 8; ++i) pad = b.mul(pad, b.imm(1));
    b.ret(b.add(acc, b.and_i(pad, 0)));
    b.finish();
    return m;
  };
  Module plain = build();
  Module balanced = build();
  EXPECT_TRUE(opt::reassociate(balanced.function(0)));
  ASSERT_EQ(verify(balanced), "");
  EXPECT_EQ(run_checksum(balanced), run_checksum(plain));  // = 36
  EXPECT_EQ(run_checksum(balanced), 36);

  // With the list scheduler on top, the balanced form must win cycles on
  // the dual-issue machine.
  opt::schedule_blocks(plain.function(0));
  opt::schedule_blocks(balanced.function(0));
  sim::Simulator s0(plain, sim::amd_like());
  sim::Simulator s1(balanced, sim::amd_like());
  EXPECT_LT(s1.run().cycles, s0.run().cycles);
}

TEST(Reassoc, LeavesMultiUseIntermediatesAlone) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg a = b.imm(1), c = b.imm(2), d = b.imm(3);
  Reg t1 = b.add(a, c);
  Reg t2 = b.add(t1, d);
  // t1 used twice: the chain through it must not be consumed.
  b.ret(b.add(t2, t1));
  b.finish();
  const std::int64_t before = run_checksum(m);
  opt::reassociate(m.function(0));
  ASSERT_EQ(verify(m), "");
  EXPECT_EQ(run_checksum(m), before);
}

TEST(Reassoc, PreservesNonCommutativeOps) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg acc = b.imm(1000);
  for (int i = 0; i < 6; ++i) acc = b.sub(acc, b.imm(i + 1));
  b.ret(acc);
  b.finish();
  const std::int64_t before = run_checksum(m);
  EXPECT_FALSE(opt::reassociate(m.function(0)));  // sub is not in scope
  EXPECT_EQ(run_checksum(m), before);
}

TEST(Reassoc, WorksAcrossEveryAssociativeOpcode) {
  for (Opcode op : {Opcode::Add, Opcode::Mul, Opcode::And, Opcode::Or,
                    Opcode::Xor, Opcode::Min, Opcode::Max}) {
    Module m;
    FunctionBuilder b(m, "main", 0);
    Reg acc = b.imm(13);
    for (int i = 0; i < 6; ++i) acc = b.binop(op, acc, b.imm(7 + i));
    b.ret(acc);
    b.finish();
    const std::int64_t before = run_checksum(m);
    opt::reassociate(m.function(0));
    ASSERT_EQ(verify(m), "") << opcode_name(op);
    EXPECT_EQ(run_checksum(m), before) << opcode_name(op);
  }
}

TEST(PassRegistry, NamesRoundTrip) {
  for (unsigned i = 0; i < opt::kNumPasses; ++i) {
    const auto id = static_cast<PassId>(i);
    EXPECT_EQ(opt::pass_from_name(opt::pass_name(id)), id);
  }
  EXPECT_THROW(opt::pass_from_name("bogus"), support::CheckError);
  EXPECT_EQ(opt::sequence_space().size(), opt::kSequenceSpacePasses);
}

}  // namespace
