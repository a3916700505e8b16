// Search strategies over optimization spaces: random sampling (the
// RANDOM baseline of Fig. 2b), greedy mutation hill-climbing, genetic
// search (the Cooper et al. baseline, usable for cycles or code size),
// enumeration with sampling (Fig. 2a), and flag-space random search (the
// Fig. 3/4 setting space).
//
// Parallel evaluation: strategies that evaluate independent candidate
// batches fan the batch out with support::parallel_for. Random,
// seeded-random and generator-driven search take a caller-owned
// support::ThreadPool (null runs the batch inline), which concurrent
// searches may share; the genetic search builds a pool per run from
// GaParams::workers. Candidates are *sampled* sequentially — the RNG is
// only ever consumed on the calling thread, in the same order as the
// sequential implementation — and results are committed to the
// SearchTrace in submission order, so a fixed-seed run produces a
// bit-identical trace at any pool size (see DESIGN.md, "The evaluation hot
// path"). Greedy search is inherently serial (each step depends on the
// last result) and takes no pool.
//
// Prefix reuse: each genetic_search call owns a PrefixStates
// (search/prefix_states.hpp) for its length, shares it among its workers,
// and evaluates through Evaluator::eval_sequence(seq, states): a candidate
// starts from the module after the longest stored prefix of its genes.
// The GA is the only strategy that does so. Greedy search (a candidate
// keeps `current`'s passes up to the position it changes) and enumeration
// (raw indices in lexicographic order) share prefixes too, but still call
// the one-argument eval_sequence, as do random and flag-space search,
// whose independent samples seldom share one. Neither form changes a
// trace.
#pragma once

#include <functional>
#include <vector>

#include "search/evaluator.hpp"
#include "search/pareto.hpp"
#include "search/space.hpp"
#include "support/rng.hpp"

namespace ilc::support {
class ThreadPool;  // support/thread_pool.hpp
}

namespace ilc::search {

class PerfEstimator;  // search/seedbank.hpp

/// What the search minimizes. `Pareto` tracks the full (cycles, code_size)
/// front in SearchTrace::pareto; its scalar projection (best_metric,
/// best_so_far) is cycles, so single-objective consumers keep working.
enum class Objective { Cycles, CodeSize, Pareto };

inline std::uint64_t metric_of(const EvalResult& r, Objective obj) {
  return obj == Objective::CodeSize ? r.code_size : r.cycles;
}

struct SearchTrace {
  std::vector<std::uint64_t> best_so_far;  // metric after each evaluation
  std::vector<opt::PassId> best_seq;
  std::uint64_t best_metric = ~0ULL;
  unsigned evaluations = 0;
  ParetoArchive pareto;  // populated only under Objective::Pareto

  void record(const std::vector<opt::PassId>& seq, std::uint64_t metric);
  /// Full-result variant: feeds the Pareto archive under Objective::Pareto
  /// and falls through to the scalar projection for the trace.
  void record(const std::vector<opt::PassId>& seq, std::uint64_t cycles,
              std::uint64_t code_size, Objective obj);
};

/// Warm-start material for a search: prior-best sequences from the
/// program's KB cluster, plus an optional learned estimator that
/// pre-filters candidates before simulation budget is spent (skips are
/// counted on `search.estimator.skipped`).
struct Seeding {
  std::vector<std::vector<opt::PassId>> seeds;
  const PerfEstimator* estimator = nullptr;
  /// Candidate multiplier when the estimator is present: draw
  /// `oversample` x as many candidates, keep the predicted-best subset.
  unsigned oversample = 4;
};

/// Evaluate `budget` uniform random sequences, on the calling thread plus
/// helpers from `pool` when one is given.
SearchTrace random_search(Evaluator& eval, const SequenceSpace& space,
                          support::Rng& rng, unsigned budget,
                          Objective obj = Objective::Cycles,
                          support::ThreadPool* pool = nullptr);

/// Random search warm-started from a SeedBank cluster: the seeds are
/// evaluated first, then the remaining budget is filled with uniform
/// samples — oversampled and pre-filtered by the estimator when one is
/// provided. Candidate sampling and filtering happen on the calling
/// thread, so fixed-seed traces are bit-identical at any pool size.
SearchTrace seeded_random_search(Evaluator& eval, const SequenceSpace& space,
                                 const Seeding& seeding, support::Rng& rng,
                                 unsigned budget,
                                 Objective obj = Objective::Cycles,
                                 support::ThreadPool* pool = nullptr);

/// Hill-climbing: mutate the best-so-far sequence one position at a time,
/// restarting from a random point when stuck.
SearchTrace greedy_search(Evaluator& eval, const SequenceSpace& space,
                          support::Rng& rng, unsigned budget,
                          Objective obj = Objective::Cycles);

/// Search driven by a sequence generator (used by the FOCUSSED model).
/// All `budget` candidates are drawn from `gen` up front, on the calling
/// thread, then evaluated (with helpers from `pool` when one is given) —
/// so a stateful generator sees exactly the sequential call pattern.
SearchTrace generator_search(
    Evaluator& eval, const std::function<std::vector<opt::PassId>()>& gen,
    unsigned budget, Objective obj = Objective::Cycles,
    support::ThreadPool* pool = nullptr);

struct GaParams {
  unsigned population = 20;
  double mutation_rate = 0.1;
  unsigned elites = 2;
  /// Threads that score each generation, the calling thread included (the
  /// run's pool holds `workers - 1` helpers); breeding stays sequential,
  /// so the trace is identical at any value.
  unsigned workers = 1;
  /// Cluster-best sequences injected into the initial population (invalid
  /// or wrong-length seeds are replaced by uniform samples).
  std::vector<std::vector<opt::PassId>> seeds;
  /// When set, each generation breeds `oversample` x the needed children
  /// and keeps the predicted-best subset before spending simulations.
  const PerfEstimator* estimator = nullptr;
  unsigned oversample = 2;
};

/// Generational GA in the style of Cooper et al.'s code-size work. Under
/// Objective::Pareto, selection is NSGA-II-lite: non-dominated rank then
/// crowding distance, with deterministic (cycles, code_size) tie-breaks.
/// Candidates reuse the run's prefix states; the store is freed on return.
SearchTrace genetic_search(Evaluator& eval, const SequenceSpace& space,
                           support::Rng& rng, unsigned budget,
                           Objective obj = Objective::Cycles,
                           GaParams params = {});

/// One enumerated point of the Fig. 2a space map.
struct SpacePoint {
  std::vector<opt::PassId> seq;
  std::uint64_t cycles = 0;
};

/// Enumerate the space: exhaustively if its size <= budget, else a
/// uniform random sample of `budget` distinct-by-raw-index points.
std::vector<SpacePoint> enumerate_space(Evaluator& eval,
                                        const SequenceSpace& space,
                                        support::Rng& rng, std::uint64_t budget);

/// Random search over the flag-vector space (Fig. 3/4 settings). Always
/// includes O0 and FAST as anchors.
struct FlagPoint {
  opt::OptFlags flags;
  EvalResult result;
};
std::vector<FlagPoint> flag_search(Evaluator& eval, support::Rng& rng,
                                   unsigned budget);

}  // namespace ilc::search
