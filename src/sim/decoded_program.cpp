#include "sim/decoded_program.hpp"

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

namespace ilc::sim {

namespace {

obs::Histogram& h_decode_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("sim.decode_us");
  return h;
}

DecodedFunction decode_function(const ir::Module& mod, const ir::Function& fn,
                                ir::FuncId fn_id, std::size_t num_funcs) {
  DecodedFunction out;
  out.name = fn.name;
  out.num_args = fn.num_args;
  out.num_regs = fn.num_regs;
  out.frame_bytes = (fn.frame_size + 15) / 16 * 16;
  ILC_CHECK_MSG(fn.num_args <= fn.num_regs,
                "decode: more arguments than registers in " << fn.name);

  out.block_entry.reserve(fn.blocks.size());
  std::size_t total = 0;
  for (const ir::BasicBlock& bb : fn.blocks) {
    out.block_entry.push_back(static_cast<std::uint32_t>(total));
    total += bb.insts.size();
  }
  out.code.reserve(total);

  for (ir::BlockId block = 0; block < fn.blocks.size(); ++block) {
    const ir::BasicBlock& bb = fn.blocks[block];
    ILC_CHECK_MSG(!bb.insts.empty() && ir::is_terminator(bb.insts.back()),
                  "decode: block without terminator in " << fn.name);

    for (std::size_t ip = 0; ip < bb.insts.size(); ++ip) {
      const ir::Instr& inst = bb.insts[ip];
      DecodedInstr d;
      d.op = inst.op;
      d.width_bytes = static_cast<std::uint8_t>(ir::width_bytes(inst.width));
      if (inst.is_ptr) d.flags |= DecodedInstr::kIsPtr;
      if (ir::has_dst(inst)) d.flags |= DecodedInstr::kHasDst;
      d.dst = inst.dst;
      d.a = inst.a;
      d.b = inst.b;
      d.imm = inst.imm;

      // Validate registers exactly as the reference walk would touch them,
      // so the execution loop needs no per-instruction asserts.
      std::array<ir::Reg, 2 + ir::kMaxCallArgs> uses;
      unsigned nu = 0;
      ir::append_uses(inst, uses, nu);
      for (unsigned u = 0; u < nu; ++u)
        ILC_CHECK_MSG(uses[u] < fn.num_regs,
                      "decode: register out of range in " << fn.name);
      ILC_CHECK_MSG(!d.has_dst() || d.dst < fn.num_regs,
                    "decode: dst register out of range in " << fn.name);

      switch (inst.op) {
        case ir::Opcode::GlobalAddr:
          // The handler resolves the base against the Simulator's image
          // without a bounds check; keep the id in the hot immediate slot.
          ILC_CHECK_MSG(inst.gid < mod.globals().size(),
                        "decode: bad global id in " << fn.name);
          d.imm = static_cast<std::int64_t>(inst.gid);
          break;
        case ir::Opcode::Call: {
          ILC_CHECK_MSG(inst.callee < num_funcs,
                        "decode: bad callee in " << fn.name);
          const ir::Function& callee = mod.function(inst.callee);
          ILC_CHECK_MSG(callee.num_args <= ir::kMaxCallArgs,
                        "decode: callee arity exceeds kMaxCallArgs in "
                            << fn.name);
          d.t1 = inst.callee;
          d.t2 = static_cast<std::uint32_t>(out.callsites.size());
          CallSite cs;
          cs.nargs = inst.nargs;
          cs.args = inst.args;
          out.callsites.push_back(cs);
          break;
        }
        case ir::Opcode::Jump:
        case ir::Opcode::Br: {
          ILC_CHECK_MSG(inst.t1 < fn.blocks.size(),
                        "decode: bad branch target in " << fn.name);
          d.t1 = out.block_entry[inst.t1];
          if (inst.op == ir::Opcode::Br) {
            ILC_CHECK_MSG(inst.t2 < fn.blocks.size(),
                          "decode: bad branch target in " << fn.name);
            d.t2 = out.block_entry[inst.t2];
            if (inst.t1 <= block) d.flags |= DecodedInstr::kBackward;
            // Same recipe as the reference walk, so predictor state and
            // misprediction counts are bit-identical.
            d.imm = static_cast<std::int64_t>(support::hash_combine(
                support::hash_combine(fn_id, block), ip));
          }
          break;
        }
        default:
          break;
      }
      out.code.push_back(d);
    }
  }
  return out;
}

}  // namespace

DecodedProgram decode_program(const ir::Module& mod) {
  obs::ScopedTimerUs timer(h_decode_us());
  DecodedProgram prog;
  prog.funcs.reserve(mod.functions().size());
  for (ir::FuncId id = 0; id < mod.functions().size(); ++id) {
    prog.funcs.push_back(decode_function(mod, mod.function(id), id,
                                         mod.functions().size()));
    prog.instruction_count += prog.funcs.back().code.size();
  }
  return prog;
}

}  // namespace ilc::sim
