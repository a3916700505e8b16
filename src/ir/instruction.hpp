// The Instr value type plus structural predicates used by every pass.
#pragma once

#include <array>
#include <cstdint>

#include "ir/types.hpp"

namespace ilc::ir {

inline constexpr unsigned kMaxCallArgs = 6;

/// A single three-address instruction. Trivially copyable; passes clone
/// and rewrite instructions freely.
struct Instr {
  Opcode op = Opcode::Nop;
  Reg dst = kNoReg;
  Reg a = kNoReg;
  Reg b = kNoReg;
  std::int64_t imm = 0;  // LoadImm value; Load/Store/Prefetch/FrameAddr offset

  MemWidth width = MemWidth::W8;  // Load/Store access width
  bool is_ptr = false;            // memory access holds a pointer value

  ImmTag tag = ImmTag::None;  // provenance of `imm` (see types.hpp)
  RecordId rec = kNoRecord;
  FieldId field = kNoField;

  BlockId t1 = kNoBlock;  // Jump target / Br taken target
  BlockId t2 = kNoBlock;  // Br fall-through target
  FuncId callee = kNoFunc;
  GlobalId gid = kNoGlobal;

  std::uint8_t nargs = 0;
  std::array<Reg, kMaxCallArgs> args{};

  bool operator==(const Instr&) const = default;
};

// The predicates below run for every instruction of every pass and
// analysis, so they are defined here, inline.

/// True for Jump/Br/Ret — the only instructions allowed (and required)
/// at the end of a basic block.
inline bool is_terminator(const Instr& inst) {
  return inst.op == Opcode::Jump || inst.op == Opcode::Br ||
         inst.op == Opcode::Ret;
}

/// True if the instruction writes a register (dst is meaningful).
inline bool has_dst(const Instr& inst) {
  switch (inst.op) {
    case Opcode::Store:
    case Opcode::Prefetch:
    case Opcode::Jump:
    case Opcode::Br:
    case Opcode::Ret:
    case Opcode::Nop:
      return false;
    case Opcode::Call:
      return inst.dst != kNoReg;
    default:
      return true;
  }
}

/// Number of register sources (excluding call args).
inline unsigned num_srcs(const Instr& inst) {
  switch (inst.op) {
    case Opcode::Nop:
    case Opcode::LoadImm:
    case Opcode::GlobalAddr:
    case Opcode::FrameAddr:
    case Opcode::Jump:
      return 0;
    case Opcode::Mov:
    case Opcode::Neg:
    case Opcode::Not:
    case Opcode::Load:
    case Opcode::Prefetch:
    case Opcode::Br:
      return 1;
    case Opcode::Ret:
      return inst.a == kNoReg ? 0 : 1;
    case Opcode::Call:
      return 0;  // call args handled separately
    default:
      return 2;
  }
}

/// Register sources including call arguments, appended to `out`.
inline void append_uses(const Instr& inst,
                        std::array<Reg, 2 + kMaxCallArgs>& out, unsigned& n) {
  n = 0;
  if (inst.op == Opcode::Store) {
    out[n++] = inst.a;
    out[n++] = inst.b;
    return;
  }
  const unsigned k = num_srcs(inst);
  if (k >= 1 && inst.a != kNoReg) out[n++] = inst.a;
  if (k >= 2 && inst.b != kNoReg) out[n++] = inst.b;
  if (inst.op == Opcode::Call) {
    for (unsigned i = 0; i < inst.nargs; ++i) out[n++] = inst.args[i];
  }
}

/// True if the instruction has no side effects and its result depends only
/// on its register sources (legal to remove when dead, to CSE, to hoist).
/// Loads are NOT pure (memory may change); Div/Rem are pure here because
/// the interpreter defines division by zero (yields 0 / leaves a).
inline bool is_pure(const Instr& inst) {
  switch (inst.op) {
    case Opcode::Mov:
    case Opcode::LoadImm:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Min:
    case Opcode::Max:
    case Opcode::Neg:
    case Opcode::Not:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
    case Opcode::GlobalAddr:
    case Opcode::FrameAddr:
      return true;
    default:
      return false;
  }
}

inline bool reads_memory(const Instr& inst) { return inst.op == Opcode::Load; }

inline bool writes_memory(const Instr& inst) {
  return inst.op == Opcode::Store;
}

/// True for binary ops where operand order does not matter.
bool is_commutative(Opcode op);

/// Fold a binary/unary/compare opcode over constants, per interpreter
/// semantics (wrapping 64-bit, division by zero yields 0, x % 0 yields x,
/// shifts masked to 0..63). Returns false if op is not foldable.
bool fold_constant(Opcode op, std::int64_t a, std::int64_t b,
                   std::int64_t& out);

}  // namespace ilc::ir
