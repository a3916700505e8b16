// Round-trip tests for the textual IR form: print -> parse -> print must
// be a fixed point, and parsed functions must be structurally identical
// (same fingerprints) for every workload in the suite — covering every
// opcode, annotation, and declaration shape the printer can emit.
#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/fingerprint.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "opt/pipelines.hpp"
#include "support/assert.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;
using namespace ilc::ir;

class ParserRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(ParserRoundTrip, PrintParsePrintIsFixedPoint) {
  wl::Workload w = wl::make_workload(GetParam());
  const std::string text = to_string(w.module);
  const Module parsed = parse_module(text);
  EXPECT_EQ(to_string(parsed), text);
}

TEST_P(ParserRoundTrip, FunctionFingerprintsSurvive) {
  wl::Workload w = wl::make_workload(GetParam());
  const Module parsed = parse_module(to_string(w.module));
  ASSERT_EQ(parsed.functions().size(), w.module.functions().size());
  for (std::size_t f = 0; f < parsed.functions().size(); ++f)
    EXPECT_EQ(fingerprint(parsed.functions()[f]),
              fingerprint(w.module.functions()[f]));
  EXPECT_EQ(verify(parsed), "");
}

TEST_P(ParserRoundTrip, OptimizedCodeAlsoRoundTrips) {
  // Optimized modules exercise annotations and shapes the raw builders
  // may not (compressed widths, prefetches, inlined frames).
  wl::Workload w = wl::make_workload(GetParam());
  opt::run_sequence(w.module, opt::fast_pipeline());
  opt::run_pass(opt::PassId::PtrCompress, w.module);
  const std::string text = to_string(w.module);
  const Module parsed = parse_module(text);
  EXPECT_EQ(to_string(parsed), text);
  EXPECT_EQ(verify(parsed), "");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ParserRoundTrip,
                         ::testing::ValuesIn(wl::workload_names()),
                         [](const auto& info) { return info.param; });

TEST(Parser, HandlesEveryScalarOpcodeShape) {
  Module m;
  FunctionBuilder b(m, "ops", 2, 32);
  Reg x = b.arg(0), y = b.arg(1);
  Reg acc = b.add(x, y);
  acc = b.sub(acc, y);
  acc = b.mul(acc, y);
  acc = b.div(acc, y);
  acc = b.rem(acc, y);
  acc = b.and_(acc, y);
  acc = b.or_(acc, y);
  acc = b.xor_(acc, y);
  acc = b.shl(acc, b.imm(1));
  acc = b.shr(acc, b.imm(1));
  acc = b.min(acc, y);
  acc = b.max(acc, y);
  acc = b.neg(acc);
  acc = b.not_(acc);
  acc = b.mov(acc);
  Reg c = b.cmp_eq(acc, y);
  c = b.or_(c, b.cmp_ne(acc, y));
  c = b.or_(c, b.cmp_lt(acc, y));
  c = b.or_(c, b.cmp_le(acc, y));
  c = b.or_(c, b.cmp_gt(acc, y));
  c = b.or_(c, b.cmp_ge(acc, y));
  Reg fa = b.frame_addr(8);
  b.store(fa, 0, c, MemWidth::W4);
  b.prefetch(fa, 64);
  b.ret(b.load(fa, 0, MemWidth::W4));
  b.finish();

  const std::string text = to_string(m);
  const Module parsed = parse_module(text);
  EXPECT_EQ(to_string(parsed), text);
}

TEST(Parser, NegativeImmediatesAndOffsets) {
  Module m;
  Global g;
  g.name = "buf";
  g.elem_width = 8;
  g.count = 8;
  const GlobalId gid = m.add_global(g);
  FunctionBuilder b(m, "main", 0);
  Reg base = b.global_addr(gid);
  Reg mid = b.add(base, b.imm(32));
  Reg v = b.load(mid, -8, MemWidth::W8);
  b.store(mid, -16, b.imm(-12345), MemWidth::W8);
  b.ret(v);
  b.finish();
  const std::string text = to_string(m);
  EXPECT_EQ(to_string(parse_module(text)), text);
}

TEST(Parser, ControlFlowShapes) {
  Module m;
  FuncId callee;
  {
    FunctionBuilder b(m, "callee", 3);
    b.ret(b.add(b.arg(0), b.add(b.arg(1), b.arg(2))));
    callee = b.finish();
  }
  {
    FunctionBuilder b(m, "main", 0);
    Reg one = b.imm(1);
    BlockId t = b.new_block(), f = b.new_block(), done = b.new_block();
    b.br(one, t, f);
    b.switch_to(t);
    b.call_void(callee, {one, one, one});
    b.jump(done);
    b.switch_to(f);
    Reg r = b.call(callee, {one, one, one});
    (void)r;
    b.jump(done);
    b.switch_to(done);
    b.ret();  // void return
    b.finish();
  }
  const std::string text = to_string(m);
  const Module parsed = parse_module(text);
  EXPECT_EQ(to_string(parsed), text);
  EXPECT_EQ(verify(parsed), "");
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW(parse_module("func @f(0) regs=1 frame=0 {\nbb0:\n  r0 = bogus r1, r2\n}\n"),
               support::CheckError);
  EXPECT_THROW(parse_module("bb0:\n  ret\n"), support::CheckError);
  EXPECT_THROW(
      parse_module("func @f(0) regs=1 frame=0 {\nbb7:\n  ret\n}\n"),
      support::CheckError);  // non-sequential block label
  EXPECT_THROW(
      parse_module("func @f(0) regs=1 frame=0 {\nbb0:\n  r0 = imm\n}\n"),
      support::CheckError);  // missing integer
  // An integer that does not fit its field is an error: never truncated,
  // wrapped or saturated.
  EXPECT_THROW(
      parse_module("func @f(0) regs=4294967296 frame=0 {\nbb0:\n  ret\n}\n"),
      support::CheckError);
  EXPECT_THROW(
      parse_module("func @f(0) regs=-1 frame=0 {\nbb0:\n  ret\n}\n"),
      support::CheckError);
  EXPECT_THROW(parse_module("func @f(0) regs=1 frame=0 {\nbb0:\n"
                            "  r0 = imm 9223372036854775808\n  ret r0\n}\n"),
               support::CheckError);
}

TEST(Parser, IntegersAtTheirFieldLimitsParse) {
  const Module m = parse_module(
      "func @f(0) regs=4294967295 frame=0 {\nbb0:\n"
      "  r0 = imm -9223372036854775808\n  ret r0\n}\n");
  EXPECT_EQ(m.function(0).num_regs, 4294967295u);
  EXPECT_EQ(m.function(0).blocks[0].insts[0].imm, INT64_MIN);
}

TEST(Parser, PreservesRecordsAndGlobals) {
  wl::Workload w = wl::make_workload("mcf_lite");
  const Module parsed = parse_module(to_string(w.module));
  ASSERT_EQ(parsed.records().size(), w.module.records().size());
  EXPECT_EQ(parsed.records()[0].name, w.module.records()[0].name);
  ASSERT_EQ(parsed.globals().size(), w.module.globals().size());
  for (std::size_t g = 0; g < parsed.globals().size(); ++g) {
    EXPECT_EQ(parsed.globals()[g].name, w.module.globals()[g].name);
    EXPECT_EQ(parsed.globals()[g].count, w.module.globals()[g].count);
    EXPECT_EQ(parsed.global_bytes(static_cast<GlobalId>(g)),
              w.module.global_bytes(static_cast<GlobalId>(g)));
  }
  EXPECT_EQ(parsed.ptr_bytes(), w.module.ptr_bytes());
}

}  // namespace
