#include "ir/verifier.hpp"

#include <sstream>

#include "ir/printer.hpp"
#include "support/assert.hpp"

namespace ilc::ir {

namespace {

class Checker {
 public:
  Checker(const Function& fn, const Module& mod) : fn_(fn), mod_(mod) {}

  std::string run() {
    if (fn_.blocks.empty()) return fail(0, 0, "function has no blocks");
    if (fn_.num_regs > kMaxRegs) return fail(0, 0, "too many registers");
    if (fn_.num_args > fn_.num_regs)
      return fail(0, 0, "num_args exceeds num_regs");
    for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
      const BasicBlock& bb = fn_.blocks[b];
      if (bb.insts.empty()) return fail(b, 0, "empty block");
      for (std::size_t i = 0; i < bb.insts.size(); ++i) {
        const Instr& inst = bb.insts[i];
        const bool last = (i + 1 == bb.insts.size());
        if (is_terminator(inst) != last)
          return fail(b, i, last ? "block not ended by terminator"
                                 : "terminator in middle of block");
        std::string err = check_instr(inst);
        if (!err.empty()) return fail(b, i, err);
      }
    }
    return "";
  }

 private:
  std::string fail(std::size_t b, std::size_t i, const std::string& msg) {
    std::ostringstream os;
    os << "function @" << fn_.name << " bb" << b << " inst " << i << ": "
       << msg;
    if (b < fn_.blocks.size() && i < fn_.blocks[b].insts.size())
      os << " [" << to_string(fn_.blocks[b].insts[i]) << "]";
    return os.str();
  }

  bool reg_ok(Reg r) const { return r != kNoReg && r < fn_.num_regs; }

  std::string check_instr(const Instr& inst) {
    // Destination register.
    if (has_dst(inst) && !reg_ok(inst.dst)) return "bad dst register";
    // Sources.
    std::array<Reg, 2 + kMaxCallArgs> uses;
    unsigned n = 0;
    append_uses(inst, uses, n);
    for (unsigned u = 0; u < n; ++u)
      if (!reg_ok(uses[u])) return "bad source register";

    switch (inst.op) {
      case Opcode::Jump:
        if (inst.t1 >= fn_.blocks.size()) return "bad jump target";
        break;
      case Opcode::Br:
        if (inst.t1 >= fn_.blocks.size() || inst.t2 >= fn_.blocks.size())
          return "bad branch target";
        break;
      case Opcode::Call: {
        if (inst.callee >= mod_.functions().size()) return "bad callee";
        const Function& callee = mod_.function(inst.callee);
        if (inst.nargs != callee.num_args) return "call arity mismatch";
        break;
      }
      case Opcode::GlobalAddr:
        if (inst.gid >= mod_.globals().size()) return "bad global id";
        break;
      case Opcode::FrameAddr:
        if (inst.imm < 0 ||
            static_cast<std::uint64_t>(inst.imm) >= fn_.frame_size)
          return "frame offset out of range";
        break;
      case Opcode::Load:
      case Opcode::Store: {
        const unsigned w = width_bytes(inst.width);
        if (w != 1 && w != 2 && w != 4 && w != 8) return "bad access width";
        break;
      }
      default:
        break;
    }

    // Tagged immediates must reference valid records/fields and carry the
    // value the current layout implies (so passes can trust them).
    switch (inst.tag) {
      case ImmTag::None:
        break;
      case ImmTag::RecordStride: {
        if (inst.rec >= mod_.records().size()) return "bad record in tag";
        const auto lay = mod_.record_layout(inst.rec);
        if (inst.imm != static_cast<std::int64_t>(lay.stride))
          return "stale RecordStride immediate";
        break;
      }
      case ImmTag::FieldOffset: {
        if (inst.rec >= mod_.records().size()) return "bad record in tag";
        const RecordType& rec = mod_.record(inst.rec);
        if (inst.field >= rec.fields.size()) return "bad field in tag";
        const auto lay = mod_.record_layout(inst.rec);
        if (inst.imm != static_cast<std::int64_t>(lay.offsets[inst.field]))
          return "stale FieldOffset immediate";
        if ((inst.op == Opcode::Load || inst.op == Opcode::Store) &&
            width_bytes(inst.width) != lay.widths[inst.field])
          return "field access width mismatch";
        break;
      }
      case ImmTag::PtrWidth:
        if (inst.imm != static_cast<std::int64_t>(mod_.ptr_bytes()))
          return "stale PtrWidth immediate";
        break;
    }
    return "";
  }

  const Function& fn_;
  const Module& mod_;
};

}  // namespace

std::string verify(const Function& fn, const Module& mod) {
  return Checker(fn, mod).run();
}

std::string verify(const Module& mod) {
  for (const Function& fn : mod.functions()) {
    std::string err = verify(fn, mod);
    if (!err.empty()) return err;
  }
  if (mod.ptr_bytes() != 4 && mod.ptr_bytes() != 8) return "bad ptr width";
  return "";
}

}  // namespace ilc::ir
