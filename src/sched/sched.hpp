// The Section II case study, end to end: supervised learning of an
// instruction-scheduling heuristic.
//
//   Phrasing:  "given two ready instructions A and B at a list-scheduling
//               decision point, should A be scheduled before B?"
//   Features:  pairwise differences of critical-path height, latency,
//               fan-out, memory-ness — the critical-path vocabulary the
//               paper cites as the known-good starting point.
//   Instances: generated at real decision points; each candidate's value
//               is estimated by completing the schedule with the
//               competent critical-path heuristic and costing the block
//               on a scoreboard model ("run to the end of the problem
//               using a heuristic already known to be competent").
//   Training:  any ml::Classifier (logistic regression and decision trees
//               in the benches), leave-one-benchmark-out validated.
//   Integration: the learned pairwise comparator drives a tournament
//               among the ready set inside the list scheduler.
#pragma once

#include <vector>

#include "ir/module.hpp"
#include "ml/ml.hpp"
#include "opt/schedule_dag.hpp"
#include "support/rng.hpp"

namespace ilc::sched {

/// Names of the pairwise features, index-aligned with pair_features().
const std::vector<std::string>& pair_feature_names();

/// Pairwise decision features for ready candidates `a` vs `b` of a block
/// body under its dependence DAG.
std::vector<double> pair_features(const opt::ScheduleDag& dag,
                                  const std::vector<ir::Instr>& insts,
                                  std::size_t a, std::size_t b);

/// One training instance: features of an (A, B) candidate pair; label 1
/// if scheduling A first led to the cheaper completed schedule, else 0.
struct Instance {
  std::vector<double> features;
  int label = 0;
};

/// Scoreboard cost (cycles) of executing a terminator-free instruction
/// list in the given order: `issue_width` instructions per cycle, stall
/// on unready sources. Mirrors the simulator's timing model so labels
/// generated from it transfer (the paper: estimators need only be
/// accurate in a relative sense).
std::uint64_t order_cost(const std::vector<ir::Instr>& insts,
                         const std::vector<std::size_t>& order,
                         unsigned issue_width = 2);

/// Put a module into the shape the scheduler actually sees inside a
/// pipeline: trivial redundancy removed, leaves inlined, blocks merged.
/// Instance generation and evaluation both use this so train and test
/// distributions match.
void prepare_for_scheduling(ir::Module& mod);

/// Generate labeled instances from every block of a function by replaying
/// list scheduling `rounds` times. At decision points with >= 2 ready
/// candidates the greedy top-2 pair plus a random pair are evaluated both
/// ways (complete-greedily-and-cost). At most `max_per_block` instances
/// per block per round; ties (equal cost) are skipped as uninformative.
std::vector<Instance> generate_instances(const ir::Function& fn,
                                         support::Rng& rng,
                                         unsigned max_per_block = 16,
                                         unsigned rounds = 3);

ml::Dataset to_dataset(const std::vector<Instance>& instances);

/// List-schedule every block of `fn` using the learned pairwise
/// comparator (tournament over the ready set). Returns true if any block
/// order changed.
bool schedule_with_model(ir::Function& fn, const ml::Classifier& model);

}  // namespace ilc::sched
