// Simulator unit tests: cache behaviour, branch predictor, interpreter
// semantics (arithmetic, memory, calls, traps), timing-model monotonicity,
// and counter accounting.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "support/assert.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/cache.hpp"
#include "sim/interpreter.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;
using namespace ilc::ir;

// --- cache -------------------------------------------------------------

TEST(Cache, HitsAfterFill) {
  sim::Cache c({1024, 64, 2, 1});
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));   // same line
  EXPECT_FALSE(c.access(64));  // next line
}

TEST(Cache, LruEvictionOrder) {
  // 2-way, 2 sets of 64B lines: lines 0,128,256 map to set 0.
  sim::Cache c({256, 64, 2, 1});
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(128));
  EXPECT_TRUE(c.access(0));     // refresh line 0 -> 128 is now LRU
  EXPECT_FALSE(c.access(256));  // evicts 128
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(128));  // was evicted
}

TEST(Cache, ClearColdsEverything) {
  sim::Cache c({256, 64, 2, 1});
  c.access(0);
  c.clear();
  EXPECT_FALSE(c.access(0));
}

TEST(Cache, RejectsNonPowerOfTwoSets) {
  EXPECT_THROW(sim::Cache({192, 64, 1, 1}), support::CheckError);
}

// --- branch predictor --------------------------------------------------

TEST(Bpred, StaticPredictsBackwardTaken) {
  sim::BranchPredictor p(0);
  EXPECT_TRUE(p.predict(1, true));
  EXPECT_FALSE(p.predict(1, false));
}

TEST(Bpred, DynamicLearnsBias) {
  sim::BranchPredictor p(256);
  for (int i = 0; i < 8; ++i) p.update(42, false);
  EXPECT_FALSE(p.predict(42, true));
  for (int i = 0; i < 8; ++i) p.update(42, true);
  EXPECT_TRUE(p.predict(42, true));
}

// --- interpreter semantics ----------------------------------------------

Module arith_module(std::int64_t a, std::int64_t bval, Opcode op) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(a);
  Reg y = b.imm(bval);
  b.ret(b.binop(op, x, y));
  b.finish();
  return m;
}

TEST(Interp, BasicArithmetic) {
  auto run = [](std::int64_t a, std::int64_t b, Opcode op) {
    Module m = arith_module(a, b, op);
    sim::Simulator s(m, sim::amd_like());
    return s.run().ret;
  };
  EXPECT_EQ(run(6, 7, Opcode::Mul), 42);
  EXPECT_EQ(run(7, 2, Opcode::Div), 3);
  EXPECT_EQ(run(-7, 2, Opcode::Div), -3);  // C-style truncation
  EXPECT_EQ(run(7, 0, Opcode::Div), 0);    // defined
  EXPECT_EQ(run(1, 62, Opcode::Shl), 1LL << 62);
  EXPECT_EQ(run(5, 9, Opcode::Min), 5);
}

TEST(Interp, NarrowLoadsSignExtend) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 2;
  g.count = 1;
  g.init = {-5};
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  b.ret(b.load(b.global_addr(buf), 0, MemWidth::W2));
  b.finish();
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.run().ret, -5);
}

TEST(Interp, FrameMemoryIsPerActivation) {
  Module m;
  // leaf(x): spills x to its frame and reloads it.
  FuncId leaf;
  {
    FunctionBuilder b(m, "leaf", 1, 16);
    Reg slot = b.frame_addr(0);
    b.store(slot, 0, b.arg(0), MemWidth::W8);
    b.ret(b.load(slot, 0, MemWidth::W8));
    leaf = b.finish();
  }
  {
    FunctionBuilder b(m, "main", 0, 16);
    Reg slot = b.frame_addr(0);
    b.store(slot, 0, b.imm(111), MemWidth::W8);
    Reg r = b.call(leaf, {b.imm(42)});
    Reg mine = b.load(slot, 0, MemWidth::W8);  // must be untouched
    b.ret(b.add(r, mine));
    b.finish();
  }
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.run().ret, 153);
}

TEST(Interp, RecursionWorks) {
  Module m;
  // fib(n) with recursion: needs a forward-declared self id — build with
  // the function calling id 0 (itself, as the first function added).
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
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.call("fib", {10}).ret, 55);
}

TEST(Interp, NullDereferenceTraps) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg null = b.imm(0);
  b.ret(b.load(null, 0, MemWidth::W8));
  b.finish();
  sim::Simulator s(m, sim::amd_like());
  EXPECT_THROW(s.run(), sim::TrapError);
}

TEST(Interp, OutOfBoundsTraps) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg big = b.imm(1LL << 40);
  b.ret(b.load(big, 0, MemWidth::W8));
  b.finish();
  sim::Simulator s(m, sim::amd_like());
  EXPECT_THROW(s.run(), sim::TrapError);
}

TEST(Interp, InfiniteLoopHitsBudget) {
  Module m;
  FunctionBuilder b(m, "main", 0);
  BlockId spin = b.new_block();
  b.jump(spin);
  b.switch_to(spin);
  b.jump(spin);
  b.finish();
  sim::MachineConfig cfg = sim::amd_like();
  cfg.max_instructions = 10000;
  sim::Simulator s(m, cfg);
  EXPECT_THROW(s.run(), sim::TrapError);
}

TEST(Interp, PrefetchIsNonBindingAndSafe) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 4;
  g.init = {5, 6, 7, 8};
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg base = b.global_addr(buf);
  b.prefetch(base, 0);
  b.prefetch(base, 1 << 30);  // far out of range: dropped, no trap
  b.ret(b.load(base, 8, MemWidth::W8));
  b.finish();
  sim::Simulator s(m, sim::amd_like());
  EXPECT_EQ(s.run().ret, 6);
}

// --- timing / counters ---------------------------------------------------

TEST(Timing, DependentChainSlowerThanIndependent) {
  // Two programs with the same instruction count; one is a serial
  // multiply chain, the other independent multiplies.
  Module dep;
  {
    FunctionBuilder b(dep, "main", 0);
    Reg x = b.imm(3);
    for (int i = 0; i < 32; ++i) x = b.mul(x, x);
    b.ret(x);
    b.finish();
  }
  Module indep;
  {
    FunctionBuilder b(indep, "main", 0);
    Reg first = b.imm(3);
    Reg acc = first;
    std::vector<Reg> rs;
    for (int i = 0; i < 32; ++i) rs.push_back(b.mul(first, first));
    for (Reg r : rs) acc = r;
    b.ret(acc);
    b.finish();
  }
  sim::Simulator s1(dep, sim::amd_like());
  sim::Simulator s2(indep, sim::amd_like());
  EXPECT_GT(s1.run().cycles, s2.run().cycles);
}

TEST(Timing, CacheMissesCostCycles) {
  auto strided_walk = [](int stride) {
    Module m;
    Global g;
    g.name = "buf";
    g.elem_width = 8;
    g.count = 8192;
    const GlobalId buf = m.add_global(g);
    FunctionBuilder b(m, "main", 0);
    Reg base = b.global_addr(buf);
    Reg acc = b.fresh();
    b.imm_to(acc, 0);
    Reg n = b.imm(512);
    wl::Workload dummy;  // unused; keeps includes honest
    (void)dummy;
    // simple loop
    Reg i = b.fresh();
    b.imm_to(i, 0);
    BlockId head = b.new_block(), body = b.new_block(), exit = b.new_block();
    b.jump(head);
    b.switch_to(head);
    b.br(b.cmp_lt(i, n), body, exit);
    b.switch_to(body);
    Reg off = b.mul_i(i, stride * 8);
    b.mov_to(acc, b.add(acc, b.load(b.add(base, off), 0, MemWidth::W8)));
    b.mov_to(i, b.add_i(i, 1));
    b.jump(head);
    b.switch_to(exit);
    b.ret(acc);
    b.finish();
    sim::Simulator s(m, sim::amd_like());
    return s.run();
  };
  const auto unit = strided_walk(1);
  const auto sparse = strided_walk(16);  // one access per line or worse
  EXPECT_GT(sparse.counters[sim::L1_TCM], 2 * unit.counters[sim::L1_TCM]);
  EXPECT_GT(sparse.cycles, unit.cycles);
}

TEST(Counters, InstructionAndMemoryAccounting) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 2;
  g.init = {7, 0};
  const GlobalId buf = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg base = b.global_addr(buf);
  Reg v = b.load(base, 0, MemWidth::W8);
  b.store(base, 8, v, MemWidth::W8);
  b.ret(v);
  b.finish();
  sim::Simulator s(m, sim::amd_like());
  const auto r = s.run();
  EXPECT_EQ(r.counters[sim::LD_INS], 1u);
  EXPECT_EQ(r.counters[sim::SR_INS], 1u);
  EXPECT_EQ(r.counters[sim::L1_TCA], 2u);
  EXPECT_EQ(r.counters[sim::TOT_INS], r.instructions);
  EXPECT_EQ(r.ret, 7);
}

TEST(Counters, CumulativeAcrossCalls) {
  wl::Workload w = wl::make_workload("adpcm");
  sim::Simulator s(w.module, sim::amd_like());
  s.run();
  const auto after_one = s.counters()[sim::TOT_INS];
  s.run();
  EXPECT_GT(s.counters()[sim::TOT_INS], after_one);
  s.reset_counters();
  EXPECT_EQ(s.counters()[sim::TOT_INS], 0u);
}

}  // namespace
