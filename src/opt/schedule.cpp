// Block-local list scheduling. Builds the intra-block dependence graph
// (register RAW/WAR/WAW, conservative memory ordering, call barriers) and
// reorders by critical-path height so long-latency producers issue early —
// directly rewarded by the simulator's scoreboard.
//
// The dependence machinery is shared with the learned-scheduling case
// study (src/sched), which replays these decision points to generate
// training instances exactly as Section II of the paper prescribes.
#include "opt/schedule_dag.hpp"

#include <algorithm>

#include "opt/pass.hpp"
#include "support/assert.hpp"

namespace ilc::opt {

using namespace ir;

namespace {

bool is_mem_read(const Instr& inst) {
  return inst.op == Opcode::Load || inst.op == Opcode::Prefetch;
}
bool is_mem_write(const Instr& inst) { return inst.op == Opcode::Store; }
bool is_barrier(const Instr& inst) { return inst.op == Opcode::Call; }

}  // namespace

unsigned sched_latency(const Instr& inst) {
  switch (inst.op) {
    case Opcode::Mul: return 3;
    case Opcode::Div:
    case Opcode::Rem: return 24;  // between the two machines' divide costs
    case Opcode::Load: return 4;  // optimistic L1-hit latency
    default: return 1;
  }
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

const ScheduleDag& DagBuilder::build(std::span<const Instr> insts) {
  const std::size_t n = insts.size();
  ScheduleDag& dag = dag_;
  EdgeLists& preds = dag.preds;
  preds.start.assign(1, 0);
  preds.targets.clear();

  // Every edge into node i is added while i is processed, so i's
  // predecessor list is the tail of preds.targets until i is done.
  auto add_edge = [&](std::size_t from, std::size_t to) {
    const auto first = preds.targets.begin() +
                       static_cast<std::ptrdiff_t>(preds.start[to]);
    if (std::find(first, preds.targets.end(), from) == preds.targets.end())
      preds.targets.push_back(from);
  };

  // Size the per-register tables to the largest register in the block.
  Reg max_reg = 0;
  for (const Instr& inst : insts) {
    if (has_dst(inst)) max_reg = std::max(max_reg, inst.dst);
    std::array<Reg, 2 + kMaxCallArgs> uses;
    unsigned nu = 0;
    append_uses(inst, uses, nu);
    for (unsigned u = 0; u < nu; ++u) max_reg = std::max(max_reg, uses[u]);
  }
  if (def_of_.size() <= max_reg) {
    def_of_.resize(std::size_t{max_reg} + 1, kNone);
    first_reader_.resize(std::size_t{max_reg} + 1, kNone);
    last_reader_.resize(std::size_t{max_reg} + 1, kNone);
  }
  readers_.clear();

  std::size_t last_store = kNone;
  reads_since_store_.clear();
  std::size_t last_barrier = kNone;

  for (std::size_t i = 0; i < n; ++i) {
    const Instr& inst = insts[i];

    std::array<Reg, 2 + kMaxCallArgs> uses;
    unsigned nu = 0;
    append_uses(inst, uses, nu);
    for (unsigned u = 0; u < nu; ++u) {
      const Reg r = uses[u];
      if (def_of_[r] != kNone) add_edge(def_of_[r], i);  // RAW
      readers_.push_back({i, kNone});
      const std::size_t k = readers_.size() - 1;
      if (first_reader_[r] == kNone) first_reader_[r] = k;
      else readers_[last_reader_[r]].next = k;
      last_reader_[r] = k;
    }
    if (has_dst(inst)) {
      const Reg d = inst.dst;
      if (def_of_[d] != kNone) add_edge(def_of_[d], i);  // WAW
      for (std::size_t k = first_reader_[d]; k != kNone; k = readers_[k].next)
        if (readers_[k].inst != i) add_edge(readers_[k].inst, i);  // WAR
      def_of_[d] = i;
      first_reader_[d] = kNone;
    }

    if (is_mem_read(inst)) {
      if (last_store != kNone) add_edge(last_store, i);
      if (last_barrier != kNone) add_edge(last_barrier, i);
      reads_since_store_.push_back(i);
    }
    if (is_mem_write(inst) || is_barrier(inst)) {
      if (last_store != kNone) add_edge(last_store, i);
      for (std::size_t r : reads_since_store_) add_edge(r, i);
      reads_since_store_.clear();
      if (last_barrier != kNone) add_edge(last_barrier, i);
      if (is_barrier(inst)) last_barrier = i;
      else last_store = i;
    }
    preds.start.push_back(preds.targets.size());
  }

  // Successor lists are the transpose. Walking the targets in ascending
  // order lists each node's successors in ascending order.
  EdgeLists& succs = dag.succs;
  succs.start.assign(n + 1, 0);
  for (std::size_t from : preds.targets) ++succs.start[from + 1];
  for (std::size_t i = 0; i < n; ++i) succs.start[i + 1] += succs.start[i];
  succs.targets.resize(preds.targets.size());
  cursor_.assign(succs.start.begin(), succs.start.end() - 1);
  for (std::size_t to = 0; to < n; ++to)
    for (std::size_t from : preds[to]) succs.targets[cursor_[from]++] = to;

  // Empty the per-register entries this block touched.
  for (const Instr& inst : insts) {
    std::array<Reg, 2 + kMaxCallArgs> uses;
    unsigned nu = 0;
    append_uses(inst, uses, nu);
    for (unsigned u = 0; u < nu; ++u) first_reader_[uses[u]] = kNone;
    if (has_dst(inst)) def_of_[inst.dst] = kNone;
  }

  // Critical-path heights (reverse topological order = reverse index
  // order, since all edges go forward).
  dag.height.assign(n, 0);
  for (std::size_t i = n; i-- > 0;) {
    unsigned h = sched_latency(insts[i]);
    unsigned best = 0;
    for (std::size_t s : dag.succs[i]) best = std::max(best, dag.height[s]);
    dag.height[i] = h + best;
  }
  return dag;
}

ScheduleDag build_dag(const std::vector<Instr>& insts) {
  DagBuilder builder;
  return builder.build(insts);
}

bool schedule_blocks(Function& fn) {
  bool changed = false;
  DagBuilder builder;
  std::vector<unsigned> indeg;
  std::vector<std::size_t> ready, order;
  for (BasicBlock& bb : fn.blocks) {
    if (bb.insts.size() < 3) continue;
    const std::size_t n = bb.insts.size() - 1;  // exclude terminator
    const ScheduleDag& dag = builder.build({bb.insts.data(), n});

    indeg.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      indeg[i] = static_cast<unsigned>(dag.preds[i].size());

    ready.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (indeg[i] == 0) ready.push_back(i);

    order.clear();
    while (!ready.empty()) {
      // Highest critical-path height wins; original order breaks ties.
      std::size_t best_pos = 0;
      for (std::size_t k = 1; k < ready.size(); ++k) {
        const std::size_t cand = ready[k], cur = ready[best_pos];
        if (dag.height[cand] > dag.height[cur] ||
            (dag.height[cand] == dag.height[cur] && cand < cur))
          best_pos = k;
      }
      const std::size_t pick = ready[best_pos];
      ready.erase(ready.begin() + static_cast<long>(best_pos));
      order.push_back(pick);
      for (std::size_t s : dag.succs[pick])
        if (--indeg[s] == 0) ready.push_back(s);
    }
    ILC_CHECK_MSG(order.size() == n, "scheduling dropped instructions");

    bool same = true;
    for (std::size_t i = 0; i < n; ++i)
      if (order[i] != i) same = false;
    if (same) continue;

    std::vector<Instr> scheduled;
    scheduled.reserve(bb.insts.size());
    for (std::size_t i : order) scheduled.push_back(bb.insts[i]);
    scheduled.push_back(bb.insts.back());
    bb.insts = std::move(scheduled);
    changed = true;
  }
  return changed;
}

}  // namespace ilc::opt
