// Pre-decoded simulator programs — the fast half of the evaluation hot
// path. The reference tree-walker re-derives, for every dynamic
// instruction, facts that are static properties of the code: the register
// use list (a per-opcode switch in ir::append_uses, an out-of-line call),
// the branch identity (two hash_combine calls per Br), the access width,
// the latency class, and the basic-block indirection through
// fn.blocks[block].insts[ip].
//
// DecodedProgram flattens a module once into contiguous per-function
// instruction arrays with all of that precomputed. Each basic block
// becomes a *superblock*: a straight-line run laid out back to back with
// its neighbours and ended by its terminator. The execution engine
// exploits that by accounting instruction retirement and the budget guard
// per run instead of per instruction: at the control transfer that ends a
// run it retires the whole run at once, counted from its start pointer,
// with no per-block table.
//
// Layout is split hot/cold for locality. The per-instruction DecodedInstr
// is packed to 32 bytes (two per cache line; the previous layout was 112
// bytes and measurably regressed pointer-chasing workloads by blowing L1):
// opcode, flags, access width, three registers, a 64-bit immediate, and
// two 32-bit targets. Everything an opcode handler does not touch on the
// hot path lives elsewhere: call argument lists in a per-function CallSite
// side table (reached through the instruction's t2 slot), names and frame
// sizes in DecodedFunction. Field roles are overloaded per opcode so
// nothing hot leaves the 32 bytes:
//   Br         imm = precomputed branch identity, t1/t2 = flat targets
//   GlobalAddr imm = global id
//   Call       t1 = callee function id, t2 = CallSite index
//
// Decoding depends only on the module's *code* (not its memory image or a
// machine config). Each Simulator decodes the module it runs and owns the
// result; nothing shares decodings (DESIGN.md, "Decoding").
//
// Invariant: executing the decoded form is bit-identical to the reference
// walk — same results, same cycle counts, same counters, same branch ids
// fed to the predictor (tests/test_sim_decoded.cpp enforces this
// differentially).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hpp"

namespace ilc::sim {

/// One pre-decoded instruction, packed to 32 bytes. Field roles are
/// overloaded per opcode (see the file comment); cold per-site data lives
/// in DecodedFunction side tables.
struct DecodedInstr {
  /// Flag bits. `kIsPtr` marks pointer loads (no sign extension);
  /// `kBackward` marks a Br whose taken target is not later in layout
  /// order (loop-shaped, drives the static predictor).
  static constexpr std::uint8_t kIsPtr = 1u << 0;
  static constexpr std::uint8_t kBackward = 1u << 1;
  static constexpr std::uint8_t kHasDst = 1u << 2;

  ir::Opcode op = ir::Opcode::Nop;
  std::uint8_t flags = 0;
  std::uint8_t width_bytes = 8;  // Load/Store access width, resolved
  std::uint8_t unused = 0;

  ir::Reg dst = ir::kNoReg;
  ir::Reg a = ir::kNoReg;
  ir::Reg b = ir::kNoReg;

  /// LoadImm value, Load/Store/Prefetch/FrameAddr offset; for Br the
  /// precomputed branch identity (identical to the reference's
  /// hash_combine(hash_combine(fn_id, block), ip), so predictor state and
  /// misprediction counts match the reference exactly); for GlobalAddr
  /// the global id.
  std::int64_t imm = 0;

  std::uint32_t t1 = 0;  // Jump/Br taken target (flat offset); Call: callee
  std::uint32_t t2 = 0;  // Br fall-through (flat offset); Call: CallSite idx

  bool is_ptr() const { return flags & kIsPtr; }
  bool backward() const { return flags & kBackward; }
  bool has_dst() const { return flags & kHasDst; }
};
static_assert(sizeof(DecodedInstr) == 32,
              "DecodedInstr must stay two-per-cache-line; widening it "
              "regresses pointer-chasing workloads (see bench/sim_speed)");

/// Cold per-call-site data: the argument registers. Reached via the Call
/// instruction's t2 index; calls already pay frame setup, so the extra
/// indirection is invisible.
struct CallSite {
  std::uint8_t nargs = 0;
  std::array<ir::Reg, ir::kMaxCallArgs> args{};
};

/// One function, flattened: blocks concatenated in layout order, plus the
/// cold side table.
struct DecodedFunction {
  std::string name;  // owned copy; traps must not dangle into the module
  unsigned num_args = 0;
  unsigned num_regs = 0;
  std::uint64_t frame_bytes = 0;  // frame_size rounded up to 16

  std::vector<DecodedInstr> code;
  std::vector<std::uint32_t> block_entry;  // flat offset of each block
  std::vector<CallSite> callsites;         // indexed by Call.t2
};

/// A whole module's code, decoded. Owns all its data — safe to outlive the
/// source module.
struct DecodedProgram {
  std::vector<DecodedFunction> funcs;
  std::size_t instruction_count = 0;  // static instructions decoded
};

/// Decode a module. Validates terminator targets, register references,
/// global ids, and call arities (ILC_CHECK), so the execution loop can skip
/// per-instruction asserts. Each decode records its time on the
/// `sim.decode_us` registry histogram (while profiling is on).
DecodedProgram decode_program(const ir::Module& mod);

}  // namespace ilc::sim
