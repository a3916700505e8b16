// BasicBlock and Function containers.
#pragma once

#include <string>
#include <vector>

#include "ir/instruction.hpp"

namespace ilc::ir {

/// A basic block: straight-line instructions ending in one terminator.
struct BasicBlock {
  std::vector<Instr> insts;

  const Instr& terminator() const;
  Instr& terminator();
  bool has_terminator() const;
};

/// A function: arguments arrive in registers r0..r(num_args-1); entry is
/// block 0. frame_size bytes of per-activation scratch memory are
/// addressable via FrameAddr.
struct Function {
  std::string name;
  unsigned num_args = 0;
  unsigned num_regs = 0;   // registers 0..num_regs-1 are in use
  unsigned frame_size = 0; // bytes

  std::vector<BasicBlock> blocks;

  /// Allocate a fresh virtual register.
  Reg new_reg() { return num_regs++; }

  /// Append an empty block, returning its id.
  BlockId new_block();

  /// Total static instruction count (the code-size metric).
  std::size_t size() const;
};

}  // namespace ilc::ir
