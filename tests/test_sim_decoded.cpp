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
//
// A restarted Simulator must be indistinguishable from a fresh one in the
// same way, whatever the run before the restart stored or trapped on; and
// the initial images it restores are pinned by digest.
//
// Each Simulator decodes its own module, once per module it runs: on the
// first engine call after construction, restart() or switch_module().
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <tuple>

#include "dynopt/dynopt.hpp"
#include "ir/builder.hpp"
#include "liveness_reference.hpp"
#include "obs/metrics.hpp"
#include "search/evaluator.hpp"
#include "search/space.hpp"
#include "sim/decoded_program.hpp"
#include "sim/interpreter.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
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

// --- decoded representation -----------------------------------------------

TEST(DecodedProgram, FlattensEveryFunctionAndInstruction) {
  const wl::Workload w = wl::make_workload("adpcm");
  const sim::DecodedProgram prog = sim::decode_program(w.module);
  ASSERT_EQ(prog.funcs.size(), w.module.functions().size());
  std::size_t static_instrs = 0;
  for (const auto& fn : w.module.functions())
    for (const auto& b : fn.blocks) static_instrs += b.insts.size();
  EXPECT_EQ(prog.instruction_count, static_instrs);
  for (std::size_t f = 0; f < prog.funcs.size(); ++f) {
    const auto& dfn = prog.funcs[f];
    EXPECT_EQ(dfn.name, w.module.functions()[f].name);
    ASSERT_EQ(dfn.block_entry.size(), w.module.functions()[f].blocks.size());
    // Block entries partition the flat code array in order.
    EXPECT_EQ(dfn.block_entry.front(), 0u);
    for (std::size_t b = 1; b < dfn.block_entry.size(); ++b)
      EXPECT_GT(dfn.block_entry[b], dfn.block_entry[b - 1]);
  }
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

// --- who decodes, and when --------------------------------------------------

/// Programs decoded so far, from the `sim.decode_us` histogram's count
/// (profiling is on by default).
std::uint64_t decodes() {
  return obs::Registry::instance().histogram("sim.decode_us").count();
}

TEST(Decoding, EverySimulatorDecodesOnItsFirstEngineCall) {
  // The second simulator decodes a module the first one already decoded:
  // nothing shares decodings between simulators.
  const wl::Workload w = wl::make_workload("dotprod");
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("simulator " + std::to_string(i));
    sim::Simulator s(w.module, sim::amd_like());
    const std::uint64_t before = decodes();
    s.run();
    EXPECT_EQ(decodes(), before + 1);
    s.call("main");
    EXPECT_EQ(decodes(), before + 1);
  }
}

TEST(Decoding, RestartAndSwitchModuleDecodeOnTheNextEngineCall) {
  const wl::Workload w = wl::make_workload("dotprod");
  ir::Module optimized = w.module;
  opt::run_sequence(optimized, {opt::PassId::ConstProp, opt::PassId::Dce});
  sim::Simulator s(w.module, sim::amd_like(),
                   sim::Simulator::initial_image(w.module));
  s.run();

  const std::uint64_t before = decodes();
  s.restart(optimized);
  EXPECT_EQ(decodes(), before);
  s.run();
  EXPECT_EQ(decodes(), before + 1);
  s.call("main");
  EXPECT_EQ(decodes(), before + 1);

  s.switch_module(w.module);
  EXPECT_EQ(decodes(), before + 1);
  s.call("main");
  EXPECT_EQ(decodes(), before + 2);
  s.run();
  EXPECT_EQ(decodes(), before + 2);
}

TEST(Decoding, ReferenceOnlySimulatorDecodesNothing) {
  const wl::Workload w = wl::make_workload("dotprod");
  const std::uint64_t before = decodes();
  sim::Simulator s(w.module, sim::amd_like(),
                   sim::Simulator::initial_image(w.module));
  s.run_reference();
  s.restart(w.module);
  s.run_reference();
  s.switch_module(w.module);
  s.call_reference(w.module.find_function("main"));
  EXPECT_EQ(decodes(), before);
}

TEST(Decoding, EvaluatorDecodesOncePerSimulationAndNotOnMemoHits) {
  const wl::Workload w = wl::make_workload("dotprod");
  search::Evaluator eval(w.module, sim::amd_like());
  const search::SequenceSpace space;
  support::Rng rng(17);
  std::vector<std::vector<opt::PassId>> seqs;
  for (int i = 0; i < 16; ++i) seqs.push_back(space.sample(rng));

  const std::uint64_t before = decodes();
  for (const auto& seq : seqs) eval.eval_sequence(seq);
  ASSERT_GT(eval.simulations(), 0u);
  EXPECT_EQ(decodes() - before, eval.simulations());

  // A second pass over the same sequences is all memo hits.
  const std::size_t simulations = eval.simulations();
  const std::uint64_t after = decodes();
  for (const auto& seq : seqs) eval.eval_sequence(seq);
  EXPECT_EQ(eval.simulations(), simulations);
  EXPECT_EQ(eval.cache_hits(), seqs.size() + (seqs.size() - simulations));
  EXPECT_EQ(decodes(), after);
}

// --- initial images -------------------------------------------------------

std::uint64_t image_digest(const ir::MemoryImage& img) {
  support::Hasher h;
  h.pod(img.size()).pod(img.stack_base).pod(img.stack_size).pod(img.ptr_bytes);
  for (const std::uint64_t b : img.global_base) h.pod(b);
  h.bytes(img.bytes.data(), img.bytes.size());
  return h.digest();
}

TEST(InitialImage, DigestsOfEveryWorkloadAtBothPointerWidths) {
  // Recorded from build_image before its strides were computed once per
  // global: hoisting them must not move a byte or an address.
  struct Expected {
    const char* workload;
    std::uint64_t ptr8;
    std::uint64_t ptr4;
  };
  const Expected expected[] = {
      {"adpcm", 0x67849091b7ab8b39ULL, 0x25fc69fe3898777dULL},
      {"mcf_lite", 0x7c4d232f5c8a2732ULL, 0xacb4598030b56153ULL},
      {"matmul", 0x26a67f72b43d0a43ULL, 0xa28f9149cd9217ffULL},
      {"fir", 0x21bb7bbbe7cbdde8ULL, 0x57902cb931926a84ULL},
      {"crc32", 0xae4ef9be96f26878ULL, 0xf6e3939c0cfa973cULL},
      {"dijkstra", 0x4496c0a63873f2d3ULL, 0x5da4d59d8a56484fULL},
      {"histogram", 0xce71f8aa9419793cULL, 0x8e7e8906d42e6568ULL},
      {"stencil", 0xf6cf24b8859349c1ULL, 0xc0527a72fa3d3dadULL},
      {"shellsort", 0x43d1a8c765af81faULL, 0xf0f86f8785f4f8f6ULL},
      {"strsearch", 0x774b0de85f970e0bULL, 0x32547b51b5e477cfULL},
      {"sha_lite", 0x98c5b49efab16451ULL, 0xda5bc66b2989b165ULL},
      {"rle", 0x259c62ca6db9ebc3ULL, 0xb582037ecd5b94c7ULL},
      {"bitcount", 0x5a63622b36dc04e0ULL, 0x606eeb2c3110ff04ULL},
      {"dotprod", 0xd0994547250e5375ULL, 0x436e904351eb5c19ULL},
      {"linklist", 0xc8855308b62a9c30ULL, 0x69b0d1aa33056220ULL},
      {"treewalk", 0x2ffdb7baf81d8138ULL, 0xe419b422ca640bb7ULL},
      {"phased_mix", 0xac7ed0de15dae318ULL, 0xe47a3e950a45afd4ULL},
  };
  ASSERT_EQ(std::size(expected), wl::workload_names().size());
  for (const Expected& e : expected) {
    ir::Module m = wl::make_workload(e.workload).module;
    const ir::MemoryImage img8 = m.build_image();
    EXPECT_EQ(image_digest(img8), e.ptr8) << e.workload << " ptr=8";
    EXPECT_TRUE(m.image_layout() == img8) << e.workload;
    m.set_ptr_bytes(4);
    const ir::MemoryImage img4 = m.build_image();
    EXPECT_EQ(image_digest(img4), e.ptr4) << e.workload << " ptr=4";
    EXPECT_TRUE(m.image_layout() == img4) << e.workload;
  }
}

// --- restart ----------------------------------------------------------------

/// Runs `mods` in order, each on a fresh Simulator and on a restartable one
/// that only restarts: one per pointer width, built on the first module of
/// that width. Every run must agree on the return value, cycles,
/// instructions and every counter, per run and cumulatively.
void expect_restarted_matches_fresh(const std::vector<ir::Module>& mods,
                                    const sim::MachineConfig& cfg,
                                    const std::string& label) {
  std::map<unsigned, std::unique_ptr<sim::Simulator>> restarted;
  for (std::size_t i = 0; i < mods.size(); ++i) {
    const ir::Module& mod = mods[i];
    sim::Simulator fresh(mod, cfg);
    const sim::RunResult want = fresh.run();
    std::unique_ptr<sim::Simulator>& s = restarted[mod.ptr_bytes()];
    if (s == nullptr) {
      s = std::make_unique<sim::Simulator>(mod, cfg,
                                           sim::Simulator::initial_image(mod));
    } else {
      s->restart(mod);
    }
    const std::string what = label + " " + cfg.name + " #" + std::to_string(i);
    expect_identical(want, s->run(), what);
    EXPECT_EQ(fresh.counters().v, s->counters().v) << what;
  }
}

/// The base module and fixed optimization sequences of it, some with
/// ptrcompress and some without, interleaved so that every restart
/// follows a run at the other pointer width.
std::vector<ir::Module> fixed_versions(const ir::Module& base) {
  using opt::PassId;
  const std::vector<std::vector<PassId>> seqs = {
      {},
      {PassId::PtrCompress},
      {PassId::ConstProp, PassId::Cse, PassId::Dce},
      {PassId::Inline, PassId::Unroll4, PassId::PtrCompress, PassId::Schedule},
      {PassId::Licm, PassId::StrengthRed, PassId::Prefetch},
      {PassId::PtrCompress, PassId::Reassoc, PassId::Peephole,
       PassId::SimplifyCfg},
      {PassId::Unroll2, PassId::CopyProp, PassId::Dce},
  };
  std::vector<ir::Module> out;
  for (const auto& seq : seqs) {
    ir::Module m = base;
    opt::run_sequence(m, seq);
    out.push_back(std::move(m));
  }
  return out;
}

class RestartDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(RestartDifferential, RestartedMatchesFreshThroughFixedSequences) {
  const wl::Workload w = wl::make_workload(GetParam());
  const std::vector<ir::Module> versions = fixed_versions(w.module);
  for (const sim::MachineConfig& cfg : {sim::amd_like(), sim::c6713_like()})
    expect_restarted_matches_fresh(versions, cfg, w.name);
}

INSTANTIATE_TEST_SUITE_P(Suite, RestartDifferential,
                         ::testing::ValuesIn(wl::workload_names()),
                         [](const auto& info) { return info.param; });

TEST(Restart, RestartedMatchesFreshOnRandomizedModules) {
  // Each randomized module runs after its own unoptimized base program
  // dirtied the simulator it restarts.
  for (const auto& [label, mod] : randomized_modules()) {
    std::vector<ir::Module> mods;
    mods.push_back(wl::make_workload(label.substr(0, label.find('/'))).module);
    mods.push_back(mod);
    expect_restarted_matches_fresh(mods, sim::amd_like(), label);
  }
}

/// Globals `a` (16 x i64, initialized) and `b` (8 x i32, zero) shared by
/// the store-and-trap programs below, which differ only in code.
void add_data(ir::Module& m) {
  ir::Global a;
  a.name = "a";
  a.count = 16;
  for (int i = 0; i < 16; ++i) a.init.push_back(100 + i);
  m.add_global(a);
  ir::Global b;
  b.name = "b";
  b.elem_width = 4;
  b.count = 8;
  m.add_global(b);
}

/// Sums a[0..15] and b[0..7] as main's result.
ir::Module make_summing_module() {
  ir::Module m;
  add_data(m);
  ir::FunctionBuilder fb(m, "main", 0);
  ir::Reg sum = fb.imm(0);
  const ir::Reg a = fb.global_addr(0);
  const ir::Reg b = fb.global_addr(1);
  for (int i = 0; i < 16; ++i)
    sum = fb.add(sum, fb.load(a, 8 * i, ir::MemWidth::W8));
  for (int i = 0; i < 8; ++i)
    sum = fb.add(sum, fb.load(b, 4 * i, ir::MemWidth::W4));
  fb.ret(sum);
  fb.finish();
  return m;
}

TEST(Restart, AfterAStoreThenATrapMidSuperblock) {
  // Stores to both globals and the stack, then a null load in the same
  // straight-line run: the trap unwinds mid-superblock, and the stores
  // before it must still be restored.
  ir::Module trapping;
  add_data(trapping);
  {
    ir::FunctionBuilder fb(trapping, "main", 0, /*frame_size=*/16);
    const ir::Reg v = fb.imm(-7);
    fb.store(fb.global_addr(0), 8 * 3, v, ir::MemWidth::W8);
    fb.store(fb.global_addr(1), 4 * 7, v, ir::MemWidth::W4);
    fb.store(fb.frame_addr(0), 0, v, ir::MemWidth::W8);
    const ir::Reg x = fb.load(fb.imm(0), 0, ir::MemWidth::W8);  // traps
    fb.ret(fb.add(x, v));
    fb.finish();
  }
  const ir::Module clean = make_summing_module();
  const sim::MachineConfig cfg = sim::amd_like();
  const sim::RunResult want = sim::Simulator(clean, cfg).run();

  // The engine and the reference each run the trapping program, then the
  // clean one on the same simulator.
  sim::Simulator engine(trapping, cfg,
                        sim::Simulator::initial_image(trapping));
  EXPECT_THROW(engine.run(), sim::TrapError);
  engine.restart(clean);
  expect_identical(want, engine.run(), "engine after trap");

  sim::Simulator reference(trapping, cfg,
                           sim::Simulator::initial_image(trapping));
  EXPECT_THROW(reference.run_reference(), sim::TrapError);
  reference.restart(clean);
  expect_identical(want, reference.run_reference(), "reference after trap");
}

TEST(Restart, AfterStoresIntoEveryGlobalAndAboveTheStackInUse) {
  // Reads every byte range it later overwrites: the first and last element
  // of each global, main's frame, and the top of the stack far above any
  // frame. A restart that missed any of them changes the next run's sum.
  ir::Module m;
  add_data(m);
  const std::uint64_t top = ir::Module::kStackSize - 8;
  {
    ir::FunctionBuilder fb(m, "main", 0, /*frame_size=*/16);
    const ir::Reg a = fb.global_addr(0);
    const ir::Reg b = fb.global_addr(1);
    const ir::Reg frame = fb.frame_addr(0);
    const std::vector<std::tuple<ir::Reg, std::int64_t, ir::MemWidth>> slots =
        {{a, 0, ir::MemWidth::W8},
         {a, 8 * 15, ir::MemWidth::W8},
         {b, 0, ir::MemWidth::W4},
         {b, 4 * 7, ir::MemWidth::W4},
         {frame, 0, ir::MemWidth::W8},
         {frame, static_cast<std::int64_t>(top), ir::MemWidth::W8}};
    ir::Reg sum = fb.imm(0);
    for (const auto& [base, off, width] : slots)
      sum = fb.add(fb.mul_i(sum, 3), fb.load(base, off, width));
    for (const auto& [base, off, width] : slots)
      fb.store(base, off, fb.add_i(sum, off), width);
    fb.ret(sum);
    fb.finish();
  }
  const std::vector<ir::Module> mods(3, m);
  expect_restarted_matches_fresh(mods, sim::amd_like(), "every global");
  expect_identical(sim::Simulator(m, sim::amd_like()).run_reference(),
                   sim::Simulator(m, sim::amd_like()).run(), "reference");
}

TEST(Restart, RefusesAModuleWithAnotherLayout) {
  const wl::Workload w = wl::make_workload("mcf_lite");
  ir::Module compressed = w.module;
  compressed.set_ptr_bytes(4);
  sim::Simulator s(w.module, sim::amd_like(),
                   sim::Simulator::initial_image(w.module));
  EXPECT_THROW(s.restart(compressed), support::CheckError);
  // A simulator built on its module's own image cannot restart at all.
  sim::Simulator plain(w.module, sim::amd_like());
  EXPECT_THROW(plain.restart(w.module), support::CheckError);
}

}  // namespace
