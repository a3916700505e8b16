// IR unit tests: instruction predicates, constant folding semantics,
// record layout under both pointer widths, module image construction,
// builder/verifier behaviour, CFG analyses, and fingerprint stability.
#include <gtest/gtest.h>

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/fingerprint.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace {

using namespace ilc::ir;

// --- instruction predicates -----------------------------------------

TEST(Instr, TerminatorClassification) {
  Instr j;
  j.op = Opcode::Jump;
  EXPECT_TRUE(is_terminator(j));
  Instr a;
  a.op = Opcode::Add;
  EXPECT_FALSE(is_terminator(a));
  Instr r;
  r.op = Opcode::Ret;
  EXPECT_TRUE(is_terminator(r));
}

TEST(Instr, PurityExcludesMemoryAndControl) {
  Instr add;
  add.op = Opcode::Add;
  EXPECT_TRUE(is_pure(add));
  Instr ld;
  ld.op = Opcode::Load;
  EXPECT_FALSE(is_pure(ld));
  Instr st;
  st.op = Opcode::Store;
  EXPECT_FALSE(is_pure(st));
  Instr call;
  call.op = Opcode::Call;
  EXPECT_FALSE(is_pure(call));
}

TEST(Instr, StoreUsesBothAddressAndValue) {
  Instr st;
  st.op = Opcode::Store;
  st.a = 3;
  st.b = 7;
  std::array<Reg, 2 + kMaxCallArgs> uses;
  unsigned n = 0;
  append_uses(st, uses, n);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(uses[0], 3u);
  EXPECT_EQ(uses[1], 7u);
}

TEST(Fold, WrappingAndEdgeCases) {
  std::int64_t out = 0;
  EXPECT_TRUE(fold_constant(Opcode::Add, INT64_MAX, 1, out));
  EXPECT_EQ(out, INT64_MIN);  // two's-complement wrap
  EXPECT_TRUE(fold_constant(Opcode::Div, 7, 0, out));
  EXPECT_EQ(out, 0);  // defined division by zero
  EXPECT_TRUE(fold_constant(Opcode::Rem, 7, 0, out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(fold_constant(Opcode::Div, INT64_MIN, -1, out));
  EXPECT_EQ(out, INT64_MIN);  // no UB overflow
  EXPECT_TRUE(fold_constant(Opcode::Shl, 1, 64, out));
  EXPECT_EQ(out, 1);  // shift amounts masked to 0..63
  EXPECT_TRUE(fold_constant(Opcode::Shr, -8, 1, out));
  EXPECT_EQ(out, -4);  // arithmetic shift
  EXPECT_FALSE(fold_constant(Opcode::Load, 1, 2, out));
}

TEST(Fold, Comparisons) {
  std::int64_t out = 0;
  fold_constant(Opcode::CmpLt, -1, 1, out);
  EXPECT_EQ(out, 1);
  fold_constant(Opcode::CmpGe, -1, 1, out);
  EXPECT_EQ(out, 0);
  fold_constant(Opcode::Min, -5, 3, out);
  EXPECT_EQ(out, -5);
}

// --- record layout -----------------------------------------------------

TEST(RecordLayout, NaturalAlignmentAt8ByteptrWidth) {
  RecordType t;
  t.name = "n";
  t.fields = {{"pot", FieldKind::I64},
              {"p1", FieldKind::Ptr},
              {"p2", FieldKind::Ptr},
              {"v", FieldKind::I32}};
  const RecordLayout lay = layout_record(t, 8);
  EXPECT_EQ(lay.offsets, (std::vector<std::uint32_t>{0, 8, 16, 24}));
  EXPECT_EQ(lay.stride, 32u);
}

TEST(RecordLayout, ShrinksUnderPointerCompression) {
  RecordType t;
  t.fields = {{"pot", FieldKind::I64},
              {"p1", FieldKind::Ptr},
              {"p2", FieldKind::Ptr},
              {"v", FieldKind::I32}};
  const RecordLayout lay = layout_record(t, 4);
  EXPECT_EQ(lay.offsets, (std::vector<std::uint32_t>{0, 8, 12, 16}));
  EXPECT_EQ(lay.stride, 24u);  // 20 rounded to 8-byte alignment
  EXPECT_EQ(lay.widths[1], 4u);
}

TEST(RecordLayout, MixedNarrowFields) {
  RecordType t;
  t.fields = {{"a", FieldKind::I8},
              {"b", FieldKind::I16},
              {"c", FieldKind::I8},
              {"d", FieldKind::I32}};
  const RecordLayout lay = layout_record(t, 8);
  EXPECT_EQ(lay.offsets, (std::vector<std::uint32_t>{0, 2, 4, 8}));
  EXPECT_EQ(lay.stride, 12u);
}

// --- module / image -----------------------------------------------------

TEST(Module, ImageResolvesPointerInits) {
  Module m;
  RecordType t;
  t.name = "cell";
  t.fields = {{"next", FieldKind::Ptr}, {"v", FieldKind::I64}};
  const RecordId rec = m.add_record(t);

  Global g;
  g.name = "cells";
  g.kind = GlobalKind::RecordArray;
  g.record = rec;
  g.count = 3;
  g.field_init.resize(2);
  g.field_init[0] = {{1, 2, -1}, 0};  // 0 -> 1 -> 2 -> null
  g.field_init[1].values = {10, 20, 30};
  const GlobalId cells = m.add_global(g);

  const MemoryImage img = m.build_image();
  const auto lay = m.record_layout(rec);
  const std::uint64_t base = img.global_base[cells];

  auto read_ptr = [&](std::uint64_t addr) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < img.ptr_bytes; ++i)
      v |= static_cast<std::uint64_t>(img.bytes[addr + i]) << (8 * i);
    return v;
  };
  EXPECT_EQ(read_ptr(base + 0 * lay.stride), base + 1 * lay.stride);
  EXPECT_EQ(read_ptr(base + 1 * lay.stride), base + 2 * lay.stride);
  EXPECT_EQ(read_ptr(base + 2 * lay.stride), 0u);  // null
}

TEST(Module, ImageIdenticalChainAfterCompression) {
  Module m;
  RecordType t;
  t.fields = {{"next", FieldKind::Ptr}, {"v", FieldKind::I64}};
  const RecordId rec = m.add_record(t);
  Global g;
  g.name = "cells";
  g.kind = GlobalKind::RecordArray;
  g.record = rec;
  g.count = 2;
  g.field_init.resize(2);
  g.field_init[0] = {{1, -1}, 0};
  m.add_global(g);

  m.set_ptr_bytes(4);
  const MemoryImage img = m.build_image();
  EXPECT_EQ(img.ptr_bytes, 4u);
  const auto lay = m.record_layout(rec);
  EXPECT_EQ(lay.stride, 16u);  // 4(next)+pad4+8(v)? -> next@0, v@8
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 4; ++i)
    v |= static_cast<std::uint64_t>(img.bytes[img.global_base[0] + i])
         << (8 * i);
  EXPECT_EQ(v, img.global_base[0] + lay.stride);
}

TEST(Module, GlobalsAlignedAndDisjoint) {
  Module m;
  Global a;
  a.name = "a";
  a.elem_width = 1;
  a.count = 3;
  Global b;
  b.name = "b";
  b.elem_width = 8;
  b.count = 10;
  m.add_global(a);
  m.add_global(b);
  const MemoryImage img = m.build_image();
  EXPECT_GE(img.global_base[0], MemoryImage::kNullGuard);
  EXPECT_EQ(img.global_base[0] % 64, 0u);
  EXPECT_GE(img.global_base[1], img.global_base[0] + 3);
  EXPECT_EQ(img.global_base[1] % 64, 0u);
  EXPECT_GE(img.stack_base, img.global_base[1] + 80);
}

// --- builder + verifier ---------------------------------------------

Module simple_module() {
  Module m;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.imm(2);
  Reg y = b.imm(3);
  b.ret(b.add(x, y));
  b.finish();
  return m;
}

TEST(Builder, ProducesVerifiableFunction) {
  Module m = simple_module();
  EXPECT_EQ(verify(m), "");
}

TEST(Builder, RefusesUnterminatedFinish) {
  Module m;
  FunctionBuilder b(m, "f", 0);
  b.imm(1);  // no terminator
  EXPECT_THROW(b.finish(), ilc::support::CheckError);
}

TEST(Builder, RefusesEmitAfterTerminator) {
  Module m;
  FunctionBuilder b(m, "f", 0);
  b.ret();
  EXPECT_THROW(b.imm(1), ilc::support::CheckError);
}

TEST(Verifier, CatchesBadRegister) {
  Module m = simple_module();
  m.function(0).blocks[0].insts[2].a = 999;
  EXPECT_NE(verify(m), "");
}

TEST(Verifier, CatchesTooManyRegisters) {
  Module m = simple_module();
  m.function(0).num_regs = kMaxRegs;
  EXPECT_EQ(verify(m), "");
  m.function(0).num_regs = kMaxRegs + 1;
  EXPECT_NE(verify(m).find("too many registers"), std::string::npos);
}

TEST(Verifier, CatchesBadBranchTarget) {
  Module m;
  FunctionBuilder b(m, "f", 0);
  Reg c = b.imm(1);
  BlockId t = b.new_block(), f = b.new_block();
  b.br(c, t, f);
  b.switch_to(t);
  b.ret();
  b.switch_to(f);
  b.ret();
  b.finish();
  m.function(0).blocks[0].terminator().t1 = 57;
  EXPECT_NE(verify(m), "");
}

TEST(Verifier, CatchesStaleTaggedImmediate) {
  Module m;
  RecordType t;
  t.fields = {{"next", FieldKind::Ptr}, {"v", FieldKind::I64}};
  const RecordId rec = m.add_record(t);
  Global g;
  g.name = "cells";
  g.kind = GlobalKind::RecordArray;
  g.record = rec;
  g.count = 1;
  const GlobalId gid = m.add_global(g);
  FunctionBuilder b(m, "f", 0);
  Reg addr = b.global_addr(gid);
  // Load the pointer field: its access width must track the layout.
  b.ret(b.load_field(addr, rec, 0));
  b.finish();
  EXPECT_EQ(verify(m), "");
  // Change layout without patching code: verifier must object.
  m.set_ptr_bytes(4);
  EXPECT_NE(verify(m), "");
}

// --- analyses ----------------------------------------------------------

Module diamond_module() {
  // bb0 -> (bb1 | bb2) -> bb3, with a loop bb3 -> bb1.
  Module m;
  FunctionBuilder b(m, "f", 1);
  Reg i = b.fresh();
  b.imm_to(i, 0);
  BlockId head = b.new_block(), left = b.new_block(), right = b.new_block(),
          tail = b.new_block(), exit = b.new_block();
  b.jump(head);
  b.switch_to(head);
  b.br(b.cmp_lt_i(i, 10), left, exit);
  b.switch_to(left);
  b.jump(tail);
  b.switch_to(right);  // unreachable block
  b.jump(tail);
  b.switch_to(tail);
  b.mov_to(i, b.add_i(i, 1));
  b.jump(head);
  b.switch_to(exit);
  b.ret(i);
  b.finish();
  return m;
}

TEST(Analysis, RpoStartsAtEntryAndSkipsUnreachable) {
  Module m = diamond_module();
  const auto rpo = reverse_post_order(m.function(0));
  EXPECT_EQ(rpo.front(), 0u);
  for (BlockId b : rpo) EXPECT_NE(b, 3u);  // 'right' is unreachable
}

TEST(Analysis, DominatorsOfLoop) {
  Module m = diamond_module();
  const Function& fn = m.function(0);
  Cfg cfg(fn);
  const auto idom = immediate_dominators(fn, cfg);
  EXPECT_EQ(idom[1], 0u);                   // head dominated by entry
  EXPECT_TRUE(dominates(idom, 1, 2));       // head dominates body
  EXPECT_TRUE(dominates(idom, 0, 5));
  EXPECT_EQ(idom[3], kNoBlock);             // unreachable
}

TEST(Analysis, FindsNaturalLoop) {
  Module m = diamond_module();
  const auto loops = find_loops(m.function(0));
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, 1u);
  EXPECT_TRUE(loops[0].contains(2));
  EXPECT_TRUE(loops[0].contains(4));
  EXPECT_FALSE(loops[0].contains(5));
}

TEST(Analysis, LivenessTracksLoopVariable) {
  Module m = diamond_module();
  const Function& fn = m.function(0);
  Cfg cfg(fn);
  const Liveness lv = compute_liveness(fn, cfg);
  // The induction register (defined in entry, used in head/tail/exit) is
  // live into the loop header.
  bool found = false;
  for (Reg r = 0; r < fn.num_regs; ++r)
    if (lv.live_in[1].contains(r)) found = true;
  EXPECT_TRUE(found);
}

TEST(Analysis, BlockFrequenciesScaleWithLoopDepth) {
  Module m = diamond_module();
  const auto freq = block_frequencies(m.function(0));
  EXPECT_DOUBLE_EQ(freq[0], 1.0);
  EXPECT_DOUBLE_EQ(freq[2], 10.0);  // in-loop block
}

TEST(RegSetOps, InsertEraseMergeCount) {
  RegSet s(128);
  s.insert(0);
  s.insert(127);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(127));
  EXPECT_EQ(s.count(), 2u);
  RegSet t(128);
  t.insert(64);
  EXPECT_TRUE(s.merge(t));
  EXPECT_FALSE(s.merge(t));  // second merge is a no-op
  s.erase(0);
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.count(), 2u);
}

TEST(RegSetOps, WordOperationsMatchABitModelAtWordBoundaries) {
  // Sizes around one and two 64-bit words, against a one-bool-per-register
  // model; random contents, including the last register of each size.
  ilc::support::Rng rng(64);
  for (const unsigned size : {1u, 63u, 64u, 65u, 128u}) {
    auto random_set = [&](RegSet& set, std::vector<bool>& model) {
      for (Reg r = 0; r < size; ++r)
        if (rng.next_below(3) == 0) {
          set.insert(r);
          model[r] = true;
        }
      set.insert(size - 1);
      model[size - 1] = true;
    };
    for (int round = 0; round < 50; ++round) {
      RegSet a(size), b(size), c(size);
      std::vector<bool> ma(size), mb(size), mc(size);
      random_set(a, ma);
      random_set(b, mb);
      random_set(c, mc);
      // a |= b − c
      bool grows = false;
      for (Reg r = 0; r < size; ++r)
        if (mb[r] && !mc[r] && !ma[r]) {
          ma[r] = true;
          grows = true;
        }
      EXPECT_EQ(a.merge_difference(b, c), grows) << size;
      EXPECT_FALSE(a.merge_difference(b, c)) << size;
      // c |= a
      grows = false;
      for (Reg r = 0; r < size; ++r)
        if (ma[r] && !mc[r]) {
          mc[r] = true;
          grows = true;
        }
      EXPECT_EQ(c.merge(a), grows) << size;
      std::size_t count = 0;
      for (Reg r = 0; r < size; ++r) {
        ASSERT_EQ(a.contains(r), ma[r]) << size << " r" << r;
        ASSERT_EQ(c.contains(r), mc[r]) << size << " r" << r;
        count += ma[r];
      }
      EXPECT_EQ(a.count(), count) << size;
      a.erase(size - 1);
      EXPECT_FALSE(a.contains(size - 1)) << size;
      EXPECT_FALSE(a == c) << size;  // c holds size - 1
    }
  }
}

// --- printer / fingerprint ---------------------------------------------

TEST(Printer, RendersCoreShapes) {
  Module m = simple_module();
  const std::string text = to_string(m);
  EXPECT_NE(text.find("func @main(0)"), std::string::npos);
  EXPECT_NE(text.find("= imm 2"), std::string::npos);
  EXPECT_NE(text.find("= add r0, r1"), std::string::npos);
  EXPECT_NE(text.find("ret r2"), std::string::npos);
}

TEST(Fingerprint, StableAndStructureSensitive) {
  Module a = simple_module();
  Module b = simple_module();
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  b.function(0).blocks[0].insts[0].imm = 99;
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, SensitiveToPtrWidth) {
  Module a = simple_module();
  Module b = simple_module();
  b.set_ptr_bytes(4);
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

}  // namespace
