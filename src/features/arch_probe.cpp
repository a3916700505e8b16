#include "features/arch_probe.hpp"

#include <algorithm>
#include <cmath>

#include "ir/builder.hpp"
#include "sim/interpreter.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace ilc::feat {

using namespace ir;

std::vector<double> ArchProfile::to_features() const {
  return {l1_latency,
          l2_latency,
          mem_latency,
          std::log2(static_cast<double>(std::max<std::uint64_t>(1, l1_capacity))),
          std::log2(static_cast<double>(std::max<std::uint64_t>(1, l2_capacity))),
          alu_latency,
          mul_latency,
          mispredict_penalty};
}

namespace {

/// Pointer-chase microbenchmark over `bytes` of working set: cycles per
/// dependent load, measured warm.
double chase_cycles_per_access(const sim::MachineConfig& machine,
                               std::uint64_t bytes) {
  constexpr unsigned kPtr = 8;
  const std::uint64_t count = std::max<std::uint64_t>(16, bytes / kPtr);

  Module m;
  m.name = "probe_chase";
  Global g;
  g.name = "chain";
  g.elem_is_ptr = true;
  g.count = count;
  const GlobalId chain = 0;
  g.ptr_target = chain;
  // Random permutation cycle so hardware prefetch-like spatial locality
  // cannot help and every access depends on the previous one.
  support::Rng rng(bytes * 2654435761ULL + 1);
  std::vector<std::int64_t> perm(count);
  for (std::uint64_t i = 0; i < count; ++i)
    perm[i] = static_cast<std::int64_t>(i);
  rng.shuffle(perm);
  g.init.resize(count);
  for (std::uint64_t i = 0; i < count; ++i)
    g.init[perm[i]] = perm[(i + 1) % count];
  m.add_global(g);

  const std::uint64_t steps =
      std::max<std::uint64_t>(4096, 2 * count);
  FunctionBuilder b(m, "main", 0);
  Reg pos = b.fresh();
  b.mov_to(pos, b.global_addr(chain));
  Reg n = b.imm(static_cast<std::int64_t>(steps / 4));
  BlockId head = b.new_block(), body = b.new_block(), exit = b.new_block();
  Reg i = b.fresh();
  b.imm_to(i, 0);
  b.jump(head);
  b.switch_to(head);
  b.br(b.cmp_lt(i, n), body, exit);
  b.switch_to(body);
  for (int u = 0; u < 4; ++u)
    b.mov_to(pos, b.load(pos, 0, MemWidth::W8, /*is_ptr=*/true));
  b.mov_to(i, b.add_i(i, 1));
  b.jump(head);
  b.switch_to(exit);
  b.ret(pos);
  b.finish();

  sim::Simulator sim(m, machine);
  sim.run();  // warm the hierarchy
  const auto rr = sim.run();
  return static_cast<double>(rr.cycles) / static_cast<double>(steps);
}

/// Dependent-op chain: cycles per op for the given opcode.
double chain_cycles_per_op(const sim::MachineConfig& machine, Opcode op) {
  Module m;
  m.name = "probe_chain";
  constexpr int kIters = 2048;
  constexpr int kOpsPerIter = 8;
  FunctionBuilder b(m, "main", 0);
  Reg x = b.fresh();
  b.imm_to(x, 1);
  Reg one = b.imm(1);
  Reg n = b.imm(kIters);
  BlockId head = b.new_block(), body = b.new_block(), exit = b.new_block();
  Reg i = b.fresh();
  b.imm_to(i, 0);
  b.jump(head);
  b.switch_to(head);
  b.br(b.cmp_lt(i, n), body, exit);
  b.switch_to(body);
  for (int u = 0; u < kOpsPerIter; ++u)
    b.mov_to(x, b.binop(op, x, one));  // x = x op 1: serial chain
  b.mov_to(i, b.add_i(i, 1));
  b.jump(head);
  b.switch_to(exit);
  b.ret(x);
  b.finish();

  sim::Simulator sim(m, machine);
  sim.run();
  const auto rr = sim.run();
  // The mov in each chain link costs one slot; subtract half a cycle of
  // pairing noise by measuring the add chain the same way (callers take
  // differences where it matters).
  return static_cast<double>(rr.cycles) /
         static_cast<double>(kIters * kOpsPerIter);
}

/// Cycles per iteration of a loop whose measured branch follows `pattern`
/// (a function of the iteration counter): used to expose the mispredict
/// penalty by differencing a biased and an unpredictable pattern.
double branch_cycles_per_iter(const sim::MachineConfig& machine,
                              bool unpredictable) {
  Module m;
  m.name = "probe_branch";
  constexpr int kIters = 4096;
  FunctionBuilder b(m, "main", 0);
  Reg acc = b.fresh();
  b.imm_to(acc, 0);
  Reg lcg = b.fresh();
  b.imm_to(lcg, 12345);
  Reg n = b.imm(kIters);
  BlockId head = b.new_block(), body = b.new_block(), taken = b.new_block(),
          join = b.new_block(), exit = b.new_block();
  Reg i = b.fresh();
  b.imm_to(i, 0);
  b.jump(head);
  b.switch_to(head);
  b.br(b.cmp_lt(i, n), body, exit);
  b.switch_to(body);
  // Data-dependent forward branch. Both variants compute the LCG stream
  // (so its dependence chain cancels in the difference); only the
  // unpredictable one branches on it.
  b.mov_to(lcg, b.and_i(b.add_i(b.mul_i(lcg, 1103515245), 12345),
                        0x7fffffff));
  Reg bit = b.and_i(b.shr_i(lcg, 7), 1);
  Reg cond = unpredictable ? bit : b.and_(bit, b.imm(0));
  b.br(cond, taken, join);
  b.switch_to(taken);
  b.mov_to(acc, b.add_i(acc, 1));
  b.jump(join);
  b.switch_to(join);
  b.mov_to(i, b.add_i(i, 1));
  b.jump(head);
  b.switch_to(exit);
  b.ret(acc);
  b.finish();

  sim::Simulator sim(m, machine);
  sim.run();
  const auto rr = sim.run();
  return static_cast<double>(rr.cycles) / kIters;
}

}  // namespace

ArchProfile probe_architecture(const sim::MachineConfig& machine) {
  ArchProfile profile;

  // --- memory hierarchy: latency plateaus over working-set sizes -------
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t s = 1024; s <= (1u << 20); s *= 2) sizes.push_back(s);
  std::vector<double> cpa;
  cpa.reserve(sizes.size());
  for (std::uint64_t s : sizes) cpa.push_back(chase_cycles_per_access(machine, s));

  profile.l1_latency = cpa.front();
  profile.mem_latency = cpa.back();

  // First size whose latency clearly exceeds the L1 plateau.
  std::size_t l1_edge = sizes.size();
  for (std::size_t k = 1; k < sizes.size(); ++k) {
    if (cpa[k] > 1.5 * profile.l1_latency) {
      l1_edge = k;
      break;
    }
  }
  profile.l1_capacity = l1_edge < sizes.size() ? sizes[l1_edge - 1]
                                               : sizes.back();

  // L2 plateau: first stable level after the L1 edge.
  if (l1_edge + 1 < sizes.size()) {
    profile.l2_latency = cpa[l1_edge + 1];
    std::size_t l2_edge = sizes.size();
    for (std::size_t k = l1_edge + 1; k < sizes.size(); ++k) {
      if (cpa[k] > 1.5 * profile.l2_latency) {
        l2_edge = k;
        break;
      }
    }
    profile.l2_capacity =
        l2_edge < sizes.size() ? sizes[l2_edge - 1] : sizes.back();
  } else {
    profile.l2_latency = profile.mem_latency;
    profile.l2_capacity = sizes.back();
  }

  // --- core latencies ----------------------------------------------------
  profile.alu_latency = chain_cycles_per_op(machine, Opcode::Add);
  profile.mul_latency = chain_cycles_per_op(machine, Opcode::Mul);

  // --- branch mispredict penalty -----------------------------------------
  const double biased = branch_cycles_per_iter(machine, false);
  const double random = branch_cycles_per_iter(machine, true);
  // The random pattern mispredicts ~half the time and executes ~half an
  // extra taken-path instruction per iteration.
  profile.mispredict_penalty =
      std::max(0.0, 2.0 * (random - biased) - 1.0);
  return profile;
}

}  // namespace ilc::feat
