#include <algorithm>

#include "opt/pipelines.hpp"
#include "opt/schedule_dag.hpp"
#include "sched/sched.hpp"
#include "support/assert.hpp"

namespace ilc::sched {

using namespace ir;
using opt::build_dag;
using opt::ScheduleDag;
using opt::sched_latency;

const std::vector<std::string>& pair_feature_names() {
  static const std::vector<std::string> names = {
      "height_diff",    // critical-path height A - B
      "latency_diff",   // own latency A - B
      "fanout_diff",    // number of dependents A - B
      "a_is_load", "b_is_load",
      "a_is_muldiv", "b_is_muldiv",
      "order_diff",     // original position A - B (normalized)
      "a_height", "b_height",
  };
  return names;
}

std::vector<double> pair_features(const ScheduleDag& dag,
                                  const std::vector<Instr>& insts,
                                  std::size_t a, std::size_t b) {
  auto is_load = [&](std::size_t i) {
    return insts[i].op == Opcode::Load ? 1.0 : 0.0;
  };
  auto is_muldiv = [&](std::size_t i) {
    return insts[i].op == Opcode::Mul || insts[i].op == Opcode::Div ||
                   insts[i].op == Opcode::Rem
               ? 1.0
               : 0.0;
  };
  const double n = static_cast<double>(insts.size());
  std::vector<double> f;
  f.push_back(static_cast<double>(dag.height[a]) -
              static_cast<double>(dag.height[b]));
  f.push_back(static_cast<double>(sched_latency(insts[a])) -
              static_cast<double>(sched_latency(insts[b])));
  f.push_back(static_cast<double>(dag.succs[a].size()) -
              static_cast<double>(dag.succs[b].size()));
  f.push_back(is_load(a));
  f.push_back(is_load(b));
  f.push_back(is_muldiv(a));
  f.push_back(is_muldiv(b));
  f.push_back((static_cast<double>(a) - static_cast<double>(b)) / n);
  f.push_back(static_cast<double>(dag.height[a]));
  f.push_back(static_cast<double>(dag.height[b]));
  ILC_ASSERT(f.size() == pair_feature_names().size());
  return f;
}

namespace {

/// Shared scheduling replay machinery.
struct Replay {
  const std::vector<Instr>& insts;
  const ScheduleDag& dag;
  std::vector<unsigned> indeg;
  std::vector<std::size_t> ready;
  std::vector<std::size_t> order;

  explicit Replay(const std::vector<Instr>& body, const ScheduleDag& d)
      : insts(body), dag(d) {
    indeg.assign(body.size(), 0);
    for (std::size_t i = 0; i < body.size(); ++i)
      indeg[i] = static_cast<unsigned>(dag.preds[i].size());
    for (std::size_t i = 0; i < body.size(); ++i)
      if (indeg[i] == 0) ready.push_back(i);
  }

  /// Index (into ready) of the critical-path-preferred candidate.
  std::size_t greedy_pick() const {
    std::size_t best = 0;
    for (std::size_t k = 1; k < ready.size(); ++k) {
      const std::size_t cand = ready[k], cur = ready[best];
      if (dag.height[cand] > dag.height[cur] ||
          (dag.height[cand] == dag.height[cur] && cand < cur))
        best = k;
    }
    return best;
  }

  void commit(std::size_t ready_pos) {
    const std::size_t pick = ready[ready_pos];
    ready.erase(ready.begin() + static_cast<long>(ready_pos));
    order.push_back(pick);
    for (std::size_t s : dag.succs[pick])
      if (--indeg[s] == 0) ready.push_back(s);
  }

  /// Complete the schedule greedily from the current state.
  void run_to_end() {
    while (!ready.empty()) commit(greedy_pick());
  }
};

}  // namespace

std::uint64_t order_cost(const std::vector<Instr>& insts,
                         const std::vector<std::size_t>& order,
                         unsigned issue_width) {
  ILC_CHECK(order.size() == insts.size());
  ILC_CHECK(issue_width >= 1);
  Reg max_reg = 0;
  for (const Instr& inst : insts) {
    if (has_dst(inst)) max_reg = std::max(max_reg, inst.dst);
    std::array<Reg, 2 + kMaxCallArgs> uses;
    unsigned nu = 0;
    append_uses(inst, uses, nu);
    for (unsigned u = 0; u < nu; ++u) max_reg = std::max(max_reg, uses[u]);
  }
  std::vector<std::uint64_t> ready_at(max_reg + 1, 0);
  std::uint64_t t = 0;
  unsigned slots = 0;
  for (std::size_t idx : order) {
    const Instr& inst = insts[idx];
    std::array<Reg, 2 + kMaxCallArgs> uses;
    unsigned nu = 0;
    append_uses(inst, uses, nu);
    std::uint64_t earliest = 0;
    for (unsigned u = 0; u < nu; ++u)
      earliest = std::max(earliest, ready_at[uses[u]]);
    if (earliest > t) {
      t = earliest;
      slots = 0;
    } else if (slots >= issue_width) {
      t += 1;
      slots = 0;
    }
    ++slots;
    if (has_dst(inst)) ready_at[inst.dst] = t + sched_latency(inst);
  }
  return t + 1;
}

void prepare_for_scheduling(ir::Module& mod) {
  opt::canonicalize(mod);
  opt::run_pass(opt::PassId::Inline, mod);
  opt::run_pass(opt::PassId::SimplifyCfg, mod);
  opt::run_pass(opt::PassId::CopyProp, mod);
  opt::run_pass(opt::PassId::Dce, mod);
}

std::vector<Instance> generate_instances(const ir::Function& fn,
                                         support::Rng& rng,
                                         unsigned max_per_block,
                                         unsigned rounds) {
  std::vector<Instance> out;
  for (const BasicBlock& bb : fn.blocks) {
    if (bb.insts.size() < 4) continue;
    const std::vector<Instr> body(bb.insts.begin(), bb.insts.end() - 1);
    const ScheduleDag dag = build_dag(body);

    for (unsigned round = 0; round < rounds; ++round) {
      Replay replay(body, dag);
      unsigned emitted = 0;
      while (!replay.ready.empty()) {
        if (replay.ready.size() >= 2 && emitted < max_per_block) {
          // Evaluate a decision pair by committing each way and
          // completing with the competent greedy heuristic.
          auto evaluate = [&](std::size_t ready_pos) {
            Replay branch = replay;
            branch.commit(ready_pos);
            branch.run_to_end();
            return order_cost(body, branch.order);
          };
          auto emit_pair = [&](std::size_t pa, std::size_t pb) {
            if (pa == pb) return;
            const std::uint64_t cost_a = evaluate(pa);
            const std::uint64_t cost_b = evaluate(pb);
            if (cost_a == cost_b) return;  // tie: uninformative
            Instance inst;
            inst.features = pair_features(dag, body, replay.ready[pa],
                                          replay.ready[pb]);
            inst.label = cost_a < cost_b ? 1 : 0;
            out.push_back(std::move(inst));
            ++emitted;
          };

          // The pair the greedy scheduler actually faces: its top two
          // candidates by critical-path height.
          const std::size_t g1 = replay.greedy_pick();
          std::size_t g2 = g1 == 0 ? 1 : 0;
          for (std::size_t k = 0; k < replay.ready.size(); ++k) {
            if (k == g1 || k == g2) continue;
            if (dag.height[replay.ready[k]] > dag.height[replay.ready[g2]])
              g2 = k;
          }
          emit_pair(g1, g2);

          // Plus a random pair — the paper's "significant, randomly
          // chosen sample" of decision points.
          const std::size_t pa = rng.next_below(replay.ready.size());
          std::size_t pb = rng.next_below(replay.ready.size() - 1);
          if (pb >= pa) ++pb;
          emit_pair(pa, pb);
        }
        // Advance along a varied (but deterministic-per-round) path so
        // later rounds see different partial schedules.
        if (round == 0 || replay.ready.size() == 1) {
          replay.commit(replay.greedy_pick());
        } else {
          replay.commit(rng.next_below(replay.ready.size()));
        }
      }
    }
  }
  return out;
}

ml::Dataset to_dataset(const std::vector<Instance>& instances) {
  ml::Dataset d;
  d.num_classes = 2;
  for (const Instance& inst : instances) d.add(inst.features, inst.label);
  return d;
}

}  // namespace ilc::sched
