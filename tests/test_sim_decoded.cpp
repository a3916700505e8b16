// Differential tests of the simulator engine: call()/run() (pre-decoded
// superblocks, threaded dispatch) must be observationally
// indistinguishable from the tree-walking reference (run_reference()) —
// same return value, same cycle count, same instruction count, and the
// same value for every hardware counter — on every stock workload, on a
// batch of randomized modules (random optimization sequences applied to
// suite programs, which perturbs block structure, branch placement,
// instruction mix, and record layouts), on superblock-boundary stressors,
// and across switch_module code versions. ("Legacy" in test names is the
// reference.)
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dynopt/dynopt.hpp"
#include "ir/builder.hpp"
#include "liveness_reference.hpp"
#include "search/space.hpp"
#include "sim/decoded_program.hpp"
#include "sim/interpreter.hpp"
#include "sim/program_cache.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;

void expect_identical(const sim::RunResult& reference,
                      const sim::RunResult& engine, const std::string& label) {
  EXPECT_EQ(reference.ret, engine.ret) << label;
  EXPECT_EQ(reference.cycles, engine.cycles) << label;
  EXPECT_EQ(reference.instructions, engine.instructions) << label;
  for (unsigned c = 0; c < sim::kNumCounters; ++c)
    EXPECT_EQ(reference.counters.v[c], engine.counters.v[c])
        << label << " counter "
        << sim::counter_name(static_cast<sim::Counter>(c));
}

/// `main` on a fresh engine Simulator vs on a fresh reference Simulator.
void expect_engine_matches_reference(const ir::Module& mod,
                                     const std::string& label) {
  const sim::MachineConfig cfg = sim::amd_like();
  expect_identical(sim::Simulator(mod, cfg).run_reference(),
                   sim::Simulator(mod, cfg).run(), label);
}

// --- stock workloads ------------------------------------------------------

class DecodedDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(DecodedDifferential, MatchesLegacyOnStockWorkload) {
  const wl::Workload w = wl::make_workload(GetParam());
  expect_engine_matches_reference(w.module, w.name);
}

INSTANTIATE_TEST_SUITE_P(Suite, DecodedDifferential,
                         ::testing::ValuesIn(wl::workload_names()),
                         [](const auto& info) { return info.param; });

// --- randomized modules ---------------------------------------------------

/// 20 random points of the optimization space, cycling through the
/// suite: each optimized module is a structurally distinct program.
std::vector<std::pair<std::string, ir::Module>> randomized_modules() {
  support::Rng rng(20080216);
  const search::SequenceSpace space;
  const auto& names = wl::workload_names();
  std::vector<std::pair<std::string, ir::Module>> out;
  for (int i = 0; i < 20; ++i) {
    const wl::Workload w = wl::make_workload(names[i % names.size()]);
    ir::Module mod = w.module;
    const auto seq = space.sample(rng);
    opt::run_sequence(mod, seq);
    out.emplace_back(w.name + "/" + search::sequence_to_string(seq),
                     std::move(mod));
  }
  return out;
}

TEST(DecodedDifferentialRandom, MatchesLegacyOnRandomizedModules) {
  for (const auto& [label, mod] : randomized_modules())
    expect_engine_matches_reference(mod, label);
}

// The same modules give the word-parallel liveness the shapes random
// sequences create: unrolled bodies, inlined frames, new preheaders.
TEST(DecodedDifferentialRandom, LivenessMatchesPerBitReference) {
  for (const auto& [label, mod] : randomized_modules())
    testref::expect_liveness_matches_reference(mod, label);
}

// --- multi-versioning -----------------------------------------------------

TEST(DecodedDifferentialSwitchModule, MatchesReferenceAcrossCodeVersions) {
  // dynopt's multi-versioning primitive: one Simulator keeps memory,
  // caches, predictor, and clock while code versions are swapped in
  // between execution intervals. Drive the engine and the reference
  // through the same interval schedule; every interval must agree,
  // including the machine state each version inherits from the last.
  const wl::Workload w = wl::make_workload("adpcm");
  const auto versions = dyn::default_versions(w.module);
  const sim::MachineConfig cfg = sim::amd_like();
  sim::Simulator engine(versions[0].module, cfg);
  sim::Simulator reference(versions[0].module, cfg);
  expect_identical(
      reference.call_reference(versions[0].module.find_function("init")),
      engine.call("init"), "init");
  for (std::int64_t i = 0; i < w.kernel_items; ++i) {
    const dyn::CodeVersion& v = versions[i % versions.size()];
    engine.switch_module(v.module);
    reference.switch_module(v.module);
    expect_identical(
        reference.call_reference(v.module.find_function("encode_block"), {i}),
        engine.call("encode_block", {i}),
        v.name + " interval " + std::to_string(i));
  }
  EXPECT_EQ(reference.counters().v, engine.counters().v);
}

// --- decoded representation & cache ---------------------------------------

TEST(DecodedProgram, FlattensEveryFunctionAndInstruction) {
  const wl::Workload w = wl::make_workload("adpcm");
  const auto prog = sim::decode_program(w.module);
  ASSERT_EQ(prog->funcs.size(), w.module.functions().size());
  std::size_t static_instrs = 0;
  for (const auto& fn : w.module.functions())
    for (const auto& b : fn.blocks) static_instrs += b.insts.size();
  EXPECT_EQ(prog->instruction_count, static_instrs);
  for (std::size_t f = 0; f < prog->funcs.size(); ++f) {
    const auto& dfn = prog->funcs[f];
    EXPECT_EQ(dfn.name, w.module.functions()[f].name);
    ASSERT_EQ(dfn.block_entry.size(), w.module.functions()[f].blocks.size());
    // Block entries partition the flat code array in order.
    EXPECT_EQ(dfn.block_entry.front(), 0u);
    for (std::size_t b = 1; b < dfn.block_entry.size(); ++b)
      EXPECT_GT(dfn.block_entry[b], dfn.block_entry[b - 1]);
  }
}

TEST(ProgramCache, SharesOneDecodingPerFingerprint) {
  sim::ProgramCache cache(8);
  const wl::Workload w = wl::make_workload("dotprod");
  const auto a = cache.get(w.module);
  const auto b = cache.get(w.module);
  EXPECT_EQ(a.get(), b.get());  // same decoded program object
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ProgramCache, EvictsLeastRecentlyUsedAtCapacity) {
  sim::ProgramCache cache(2);
  const auto names = std::vector<std::string>{"dotprod", "rle", "crc32"};
  std::vector<ir::Module> mods;
  for (const auto& n : names) mods.push_back(wl::make_workload(n).module);
  cache.get(mods[0]);
  cache.get(mods[1]);
  cache.get(mods[2]);  // evicts mods[0]
  EXPECT_EQ(cache.size(), 2u);
  cache.get(mods[0]);  // must re-decode
  EXPECT_EQ(cache.misses(), 4u);
}

// --- superblock boundary stressors ----------------------------------------
//
// The engine retires instructions at run (superblock) granularity, so the
// interesting places are the boundaries: every terminator kind, blocks
// whose run is a single instruction, very long straight-line runs, and the
// resume point after a call. Each shape is checked against the reference.

TEST(SuperblockBoundary, SingleInstructionBlocksJumpChain) {
  // A chain of blocks each holding exactly one Jump: every superblock is a
  // lone terminator, so run accounting must settle one instruction per
  // control transfer.
  ir::Module m;
  ir::FunctionBuilder b(m, "main", 0);
  const ir::Reg v = b.imm(7);
  std::vector<ir::BlockId> hops;
  for (int i = 0; i < 6; ++i) hops.push_back(b.new_block());
  b.jump(hops[0]);
  for (int i = 0; i < 6; ++i) {
    b.switch_to(hops[i]);
    if (i + 1 < 6) {
      b.jump(hops[i + 1]);
    } else {
      b.ret(v);
    }
  }
  b.finish();
  expect_engine_matches_reference(m, "jump_chain");
}

TEST(SuperblockBoundary, BrTakenAndFallthroughEveryIteration) {
  // A counted loop: the Br alternates outcome on its last iteration, and
  // the loop body ends in a backward branch (the predictor-heavy shape).
  ir::Module m;
  ir::FunctionBuilder b(m, "main", 0);
  const ir::Reg n = b.imm(37);
  const ir::Reg acc0 = b.imm(0);
  const ir::Reg i0 = b.imm(0);
  const ir::BlockId head = b.new_block();
  const ir::BlockId body = b.new_block();
  const ir::BlockId done = b.new_block();
  const ir::Reg acc = b.fresh();
  const ir::Reg i = b.fresh();
  b.mov_to(acc, acc0);
  b.mov_to(i, i0);
  b.jump(head);
  b.switch_to(head);
  b.br(b.cmp_lt(i, n), body, done);
  b.switch_to(body);
  b.mov_to(acc, b.add(acc, i));
  b.mov_to(i, b.add_i(i, 1));
  b.jump(head);
  b.switch_to(done);
  b.ret(acc);
  b.finish();
  expect_engine_matches_reference(m, "br_loop");
}

TEST(SuperblockBoundary, MaxWidthStraightLineRun) {
  // One block with hundreds of dependent ALU ops: a single superblock far
  // wider than any loop-carried shape in the workload suite; retirement
  // happens once, at the terminating Ret.
  ir::Module m;
  ir::FunctionBuilder b(m, "main", 0);
  ir::Reg v = b.imm(1);
  for (int i = 0; i < 400; ++i) v = b.add_i(v, i % 7);
  b.ret(v);
  b.finish();
  expect_engine_matches_reference(m, "max_width_run");
}

TEST(SuperblockBoundary, CallSuspendsAndResumesMidRun) {
  // Calls end a superblock mid-block: instructions after the call resume a
  // fresh run in the same block, and the callee runs its own runs in
  // between (including a recursive one).
  ir::Module m;
  ir::FunctionBuilder fb(m, "fib", 1);
  {
    const ir::Reg n = fb.arg(0);
    const ir::BlockId base = fb.new_block();
    const ir::BlockId rec = fb.new_block();
    fb.br(fb.cmp_lt_i(n, 2), base, rec);
    fb.switch_to(base);
    fb.ret(n);
    fb.switch_to(rec);
    // Two calls in one block: suspend/resume twice, then more ALU work.
    const ir::Reg a = fb.call(0, {fb.sub_i(n, 1)});
    const ir::Reg c = fb.call(0, {fb.sub_i(n, 2)});
    fb.ret(fb.add(a, c));
  }
  const ir::FuncId fib = fb.finish();
  ir::FunctionBuilder mb(m, "main", 0);
  const ir::Reg r = mb.call(fib, {mb.imm(10)});
  mb.ret(mb.add_i(r, 1000));
  mb.finish();
  expect_engine_matches_reference(m, "call_resume");
}

TEST(SuperblockBoundary, BudgetTrapFiresInEveryMode) {
  // An infinite loop must hit the instruction-budget trap on the engine
  // and on the reference. (The engine checks the budget at superblock
  // granularity, so the post-trap executed count may legitimately exceed
  // the reference's by a partial block — only the trap itself is asserted
  // here.)
  ir::Module m;
  ir::FunctionBuilder b(m, "main", 0);
  const ir::BlockId spin = b.new_block();
  b.jump(spin);
  b.switch_to(spin);
  b.jump(spin);
  b.finish();

  sim::MachineConfig cfg = sim::amd_like();
  cfg.max_instructions = 10'000;
  EXPECT_THROW(sim::Simulator(m, cfg).run_reference(), sim::TrapError);
  EXPECT_THROW(sim::Simulator(m, cfg).run(), sim::TrapError);
}

// --- program cache: single-flight & eviction accounting -------------------

TEST(ProgramCache, CountsEvictions) {
  sim::ProgramCache cache(2);
  for (const char* n : {"dotprod", "rle", "crc32"})
    cache.get(wl::make_workload(n).module);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ProgramCache, StampedeDecodesOnce) {
  // Many threads demand the same (cold) fingerprint at once. Single-flight
  // means exactly one decode: one thread leads, the rest block on the
  // pending entry and pick up the published program — under the old
  // decode-outside-the-lock scheme this raced and decoded per thread.
  sim::ProgramCache cache(8);
  const wl::Workload w = wl::make_workload("phased_mix");
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<const sim::DecodedProgram>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // start the stampede together
      got[t] = cache.get(w.module);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[t].get());
}

TEST(DecodedProgram, RejectsOutOfRangeGlobalId) {
  // The GlobalAddr handler indexes the image's global table unchecked, so
  // the decoder must refuse ids the module does not declare.
  ir::Module m;
  ir::FunctionBuilder b(m, "main", 0);
  b.ret(b.global_addr(0));
  b.finish();
  EXPECT_THROW(sim::decode_program(m), support::CheckError);
  ir::Global g;
  g.name = "g";
  g.count = 4;
  m.add_global(g);
  EXPECT_NO_THROW(sim::decode_program(m));
}

}  // namespace
