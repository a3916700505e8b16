#include "ir/instruction.hpp"

#include "support/assert.hpp"

namespace ilc::ir {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::Nop: return "nop";
    case Opcode::Mov: return "mov";
    case Opcode::LoadImm: return "imm";
    case Opcode::Add: return "add";
    case Opcode::Sub: return "sub";
    case Opcode::Mul: return "mul";
    case Opcode::Div: return "div";
    case Opcode::Rem: return "rem";
    case Opcode::And: return "and";
    case Opcode::Or: return "or";
    case Opcode::Xor: return "xor";
    case Opcode::Shl: return "shl";
    case Opcode::Shr: return "shr";
    case Opcode::Min: return "min";
    case Opcode::Max: return "max";
    case Opcode::Neg: return "neg";
    case Opcode::Not: return "not";
    case Opcode::CmpEq: return "cmpeq";
    case Opcode::CmpNe: return "cmpne";
    case Opcode::CmpLt: return "cmplt";
    case Opcode::CmpLe: return "cmple";
    case Opcode::CmpGt: return "cmpgt";
    case Opcode::CmpGe: return "cmpge";
    case Opcode::GlobalAddr: return "gaddr";
    case Opcode::FrameAddr: return "faddr";
    case Opcode::Load: return "load";
    case Opcode::Store: return "store";
    case Opcode::Prefetch: return "prefetch";
    case Opcode::Jump: return "jump";
    case Opcode::Br: return "br";
    case Opcode::Ret: return "ret";
    case Opcode::Call: return "call";
  }
  return "?";
}

unsigned field_kind_bytes(FieldKind kind, unsigned ptr_bytes) {
  switch (kind) {
    case FieldKind::I8: return 1;
    case FieldKind::I16: return 2;
    case FieldKind::I32: return 4;
    case FieldKind::I64: return 8;
    case FieldKind::Ptr: return ptr_bytes;
  }
  return 8;
}

const char* field_kind_name(FieldKind kind) {
  switch (kind) {
    case FieldKind::I8: return "i8";
    case FieldKind::I16: return "i16";
    case FieldKind::I32: return "i32";
    case FieldKind::I64: return "i64";
    case FieldKind::Ptr: return "ptr";
  }
  return "?";
}

RecordLayout layout_record(const RecordType& type, unsigned ptr_bytes) {
  ILC_CHECK(ptr_bytes == 4 || ptr_bytes == 8);
  RecordLayout lay;
  std::uint32_t offset = 0;
  std::uint32_t max_align = 1;
  for (const RecordField& f : type.fields) {
    const std::uint32_t bytes = field_kind_bytes(f.kind, ptr_bytes);
    const std::uint32_t align = bytes;  // natural alignment
    offset = (offset + align - 1) / align * align;
    lay.offsets.push_back(offset);
    lay.widths.push_back(static_cast<std::uint8_t>(bytes));
    offset += bytes;
    max_align = std::max(max_align, align);
  }
  lay.stride = (offset + max_align - 1) / max_align * max_align;
  if (lay.stride == 0) lay.stride = 1;
  return lay;
}

bool is_commutative(Opcode op) {
  switch (op) {
    case Opcode::Add:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Min:
    case Opcode::Max:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
      return true;
    default:
      return false;
  }
}

bool fold_constant(Opcode op, std::int64_t a, std::int64_t b,
                   std::int64_t& out) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (op) {
    case Opcode::Mov: out = a; return true;
    case Opcode::Add: out = static_cast<std::int64_t>(ua + ub); return true;
    case Opcode::Sub: out = static_cast<std::int64_t>(ua - ub); return true;
    case Opcode::Mul: out = static_cast<std::int64_t>(ua * ub); return true;
    case Opcode::Div:
      if (b == 0) { out = 0; return true; }
      if (a == INT64_MIN && b == -1) { out = INT64_MIN; return true; }
      out = a / b;
      return true;
    case Opcode::Rem:
      if (b == 0) { out = a; return true; }
      if (a == INT64_MIN && b == -1) { out = 0; return true; }
      out = a % b;
      return true;
    case Opcode::And: out = a & b; return true;
    case Opcode::Or: out = a | b; return true;
    case Opcode::Xor: out = a ^ b; return true;
    case Opcode::Shl: out = static_cast<std::int64_t>(ua << (ub & 63)); return true;
    case Opcode::Shr: out = a >> (ub & 63); return true;  // arithmetic
    case Opcode::Min: out = a < b ? a : b; return true;
    case Opcode::Max: out = a > b ? a : b; return true;
    case Opcode::Neg: out = static_cast<std::int64_t>(0 - ua); return true;
    case Opcode::Not: out = ~a; return true;
    case Opcode::CmpEq: out = a == b; return true;
    case Opcode::CmpNe: out = a != b; return true;
    case Opcode::CmpLt: out = a < b; return true;
    case Opcode::CmpLe: out = a <= b; return true;
    case Opcode::CmpGt: out = a > b; return true;
    case Opcode::CmpGe: out = a >= b; return true;
    default:
      return false;
  }
}

}  // namespace ilc::ir
