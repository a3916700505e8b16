#include "ir/function.hpp"

#include "support/assert.hpp"

namespace ilc::ir {

bool BasicBlock::has_terminator() const {
  return !insts.empty() && is_terminator(insts.back());
}

const Instr& BasicBlock::terminator() const {
  ILC_CHECK(has_terminator());
  return insts.back();
}

Instr& BasicBlock::terminator() {
  ILC_CHECK(has_terminator());
  return insts.back();
}

BlockId Function::new_block() {
  blocks.emplace_back();
  return static_cast<BlockId>(blocks.size() - 1);
}

std::size_t Function::size() const {
  std::size_t n = 0;
  for (const auto& b : blocks) n += b.insts.size();
  return n;
}

}  // namespace ilc::ir
