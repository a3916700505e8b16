// Parallel candidate evaluation: fixed-seed searches must produce traces
// bit-identical to the sequential implementation at any worker count (the
// RNG is consumed only on the calling thread; results commit in
// submission order), and the evaluator's single-flight memo cache must
// run exactly one simulation per unique fingerprint even under a
// concurrent burst of identical candidates. The sequence index in front
// of that memo must change neither: traces and simulation counts match a
// memo-off run at every worker count. Nor may the GA's prefix states,
// which only a memo-on run uses: traces, fronts and simulation counts
// match the memo-off run, and the store itself admits, bounds and
// releases what its contract says. Nor may the per-thread simulators the
// evaluator restarts: evaluators that share threads, or an address, must
// score every candidate as a fresh simulator would.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ir/builder.hpp"
#include "ir/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "search/prefix_states.hpp"
#include "search/seedbank.hpp"
#include "search/strategies.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;

/// Helpers for a search at `workers` total threads, the caller included;
/// none at one worker.
std::unique_ptr<support::ThreadPool> helpers_for(unsigned workers) {
  if (workers <= 1) return nullptr;
  return std::make_unique<support::ThreadPool>(workers - 1);
}

search::Evaluator make_eval(const std::string& name = "dotprod") {
  return search::Evaluator(wl::make_workload(name).module, sim::amd_like());
}

void expect_same_trace(const search::SearchTrace& a,
                       const search::SearchTrace& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.best_metric, b.best_metric);
  EXPECT_EQ(a.best_seq, b.best_seq);
  EXPECT_EQ(a.best_so_far, b.best_so_far);
}

TEST(ParallelSearch, GeneticTraceBitIdenticalAcrossWorkerCounts) {
  const search::SequenceSpace space;
  search::Evaluator seq_eval = make_eval();
  support::Rng seq_rng(2008);
  const search::SearchTrace reference = search::genetic_search(
      seq_eval, space, seq_rng, 50, search::Objective::Cycles, {});

  for (const unsigned workers : {2u, 4u, 8u}) {
    search::Evaluator eval = make_eval();
    support::Rng rng(2008);  // same seed, fresh stream
    search::GaParams params;
    params.workers = workers;
    const search::SearchTrace trace = search::genetic_search(
        eval, space, rng, 50, search::Objective::Cycles, params);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_same_trace(trace, reference);
  }
}

TEST(ParallelSearch, RandomTraceBitIdenticalAcrossWorkerCounts) {
  const search::SequenceSpace space;
  search::Evaluator seq_eval = make_eval();
  support::Rng seq_rng(7);
  const search::SearchTrace reference =
      search::random_search(seq_eval, space, seq_rng, 30);

  search::Evaluator eval = make_eval();
  support::Rng rng(7);
  const auto pool = helpers_for(4);
  const search::SearchTrace trace = search::random_search(
      eval, space, rng, 30, search::Objective::Cycles, pool.get());
  expect_same_trace(trace, reference);
}

TEST(ParallelSearch, GeneratorSearchDrawsCandidatesSequentially) {
  // A stateful generator must observe the exact sequential call pattern
  // even when evaluation fans out.
  const search::SequenceSpace space;
  auto make_gen = [&space](support::Rng& rng) {
    return [&space, &rng] { return space.sample(rng); };
  };

  search::Evaluator seq_eval = make_eval();
  support::Rng seq_rng(99);
  const search::SearchTrace reference =
      search::generator_search(seq_eval, make_gen(seq_rng), 25);

  search::Evaluator eval = make_eval();
  support::Rng rng(99);
  const auto pool = helpers_for(4);
  const search::SearchTrace trace =
      search::generator_search(eval, make_gen(rng), 25,
                               search::Objective::Cycles, pool.get());
  expect_same_trace(trace, reference);
}

TEST(ParallelSearch, GeneticRespectsBudgetTruncationWhenParallel) {
  // Budget smaller than the population: only `budget` evaluations may
  // land in the trace, in the same order as the sequential run.
  const search::SequenceSpace space;
  search::Evaluator seq_eval = make_eval();
  support::Rng seq_rng(13);
  const search::SearchTrace reference = search::genetic_search(
      seq_eval, space, seq_rng, 7, search::Objective::Cycles, {});
  ASSERT_EQ(reference.evaluations, 7u);

  search::Evaluator eval = make_eval();
  support::Rng rng(13);
  search::GaParams params;
  params.workers = 4;
  const search::SearchTrace trace = search::genetic_search(
      eval, space, rng, 7, search::Objective::Cycles, params);
  expect_same_trace(trace, reference);
}

// --- seeding + Pareto (ROADMAP item 3) ------------------------------------

// A hand-built seeding bundle: a couple of fixed valid sequences plus an
// estimator fit on synthetic relative-cycles data.
search::Seeding toy_seeding(const search::SequenceSpace& space,
                            search::PerfEstimator& est) {
  search::Seeding seeding;
  support::Rng rng(41);
  std::vector<std::vector<opt::PassId>> train;
  std::vector<double> rel;
  for (unsigned i = 0; i < 24; ++i) {
    auto seq = space.sample(rng);
    // Synthetic but deterministic target: shorter encodings of unrolls
    // predict better relative cycles.
    double y = 1.0;
    for (opt::PassId p : seq)
      if (opt::is_unroll(p)) y -= 0.05;
    train.push_back(seq);
    rel.push_back(y);
  }
  est.fit(train, rel);
  seeding.seeds = {train[0], train[1], train[2]};
  seeding.estimator = est.ok() ? &est : nullptr;
  return seeding;
}

TEST(ParallelSearch, SeededGaTraceBitIdenticalAcrossWorkerCounts) {
  const search::SequenceSpace space;
  search::PerfEstimator est;
  const search::Seeding seeding = toy_seeding(space, est);
  ASSERT_TRUE(seeding.estimator != nullptr);

  auto run = [&](unsigned workers) {
    search::Evaluator eval = make_eval();
    support::Rng rng(2008);
    search::GaParams params;
    params.workers = workers;
    params.seeds = seeding.seeds;
    params.estimator = seeding.estimator;
    return search::genetic_search(eval, space, rng, 50,
                                  search::Objective::Cycles, params);
  };
  const search::SearchTrace reference = run(1);
  for (const unsigned workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_same_trace(run(workers), reference);
  }
}

TEST(ParallelSearch, SeededRandomTraceBitIdenticalAcrossWorkerCounts) {
  const search::SequenceSpace space;
  search::PerfEstimator est;
  const search::Seeding seeding = toy_seeding(space, est);

  auto run = [&](unsigned workers) {
    search::Evaluator eval = make_eval();
    support::Rng rng(7);
    const auto pool = helpers_for(workers);
    return search::seeded_random_search(eval, space, seeding, rng, 30,
                                        search::Objective::Cycles,
                                        pool.get());
  };
  const search::SearchTrace reference = run(1);
  expect_same_trace(run(4), reference);
  // The seeds were evaluated first: the trace starts with their metrics.
  ASSERT_EQ(reference.evaluations, 30u);
}

void expect_same_front(const search::ParetoArchive& a,
                       const search::ParetoArchive& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.front()[i].cycles, b.front()[i].cycles);
    EXPECT_EQ(a.front()[i].code_size, b.front()[i].code_size);
    EXPECT_EQ(a.front()[i].seq, b.front()[i].seq);
  }
}

TEST(ParallelSearch, ParetoGaArchiveDeterministicAcrossWorkerCounts) {
  const search::SequenceSpace space;
  auto run = [&](unsigned workers) {
    search::Evaluator eval = make_eval();
    support::Rng rng(2008);
    search::GaParams params;
    params.workers = workers;
    return search::genetic_search(eval, space, rng, 60,
                                  search::Objective::Pareto, params);
  };
  const search::SearchTrace reference = run(1);
  EXPECT_GE(reference.pareto.size(), 1u);
  // Scalar projection of the Pareto run is cycles.
  EXPECT_EQ(reference.best_metric, reference.pareto.front().front().cycles);
  for (const unsigned workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const search::SearchTrace trace = run(workers);
    expect_same_trace(trace, reference);
    expect_same_front(trace.pareto, reference.pareto);
    EXPECT_DOUBLE_EQ(trace.pareto.hypervolume(1u << 20, 1u << 20),
                     reference.pareto.hypervolume(1u << 20, 1u << 20));
  }
}

// --- single-flight memo cache ---------------------------------------------

TEST(EvaluatorStampede, OneSimulationPerUniqueFingerprintUnderBurst) {
  search::Evaluator eval = make_eval();
  const std::vector<opt::PassId> seq;  // every thread asks for -O0

  constexpr unsigned kThreads = 8;
  std::vector<search::EvalResult> results(kThreads);
  {
    std::vector<std::thread> burst;
    burst.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
      burst.emplace_back(
          [&, t] { results[t] = eval.eval_sequence(seq); });
    for (auto& th : burst) th.join();
  }

  // One leader simulated; every other thread joined that flight (or hit
  // the completed entry) and is counted as a cache hit.
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_EQ(eval.cache_hits(), kThreads - 1);
  for (const auto& r : results) {
    EXPECT_EQ(r.cycles, results[0].cycles);
    EXPECT_EQ(r.instructions, results[0].instructions);
  }
}

TEST(EvaluatorStampede, DistinctFingerprintsSimulateIndependently) {
  search::Evaluator eval = make_eval();
  const search::SequenceSpace space;
  support::Rng rng(5);
  // Two sequences that optimize to different code, evaluated twice each:
  // two simulations, two hits.
  std::vector<opt::PassId> a, b;
  do {
    a = space.sample(rng);
    b = space.sample(rng);
  } while (ir::fingerprint(eval.optimized(a)) ==
           ir::fingerprint(eval.optimized(b)));
  eval.eval_sequence(a);
  eval.eval_sequence(b);
  eval.eval_sequence(a);
  eval.eval_sequence(b);
  EXPECT_EQ(eval.simulations(), 2u);
  EXPECT_EQ(eval.cache_hits(), 2u);
}

// --- sequence index ---------------------------------------------------------

/// The fixed-seed GA or random search every memo run repeats.
search::SearchTrace fixed_seed_search(bool genetic, unsigned workers,
                                      search::Evaluator& eval,
                                      search::Objective obj) {
  const search::SequenceSpace space;
  if (genetic) {
    support::Rng rng(2008);
    search::GaParams params;
    params.workers = workers;
    return search::genetic_search(eval, space, rng, 120, obj, params);
  }
  support::Rng rng(7);
  const auto pool = helpers_for(workers);
  return search::random_search(eval, space, rng, 60, obj, pool.get());
}

struct MemoRun {
  search::SearchTrace trace;
  std::size_t simulations = 0;
  std::size_t cache_hits = 0;
  std::size_t sequence_hits = 0;
  std::size_t pass_runs = 0;
  std::size_t pass_runs_skipped = 0;
  /// Programs decoded, from the `sim.decode_us` histogram's count.
  std::uint64_t decodes = 0;
};

MemoRun run_with_memo(bool memo, bool genetic, unsigned workers,
                      const std::string& workload = "dotprod",
                      search::Objective obj = search::Objective::Cycles) {
  const obs::Histogram decode_us =
      obs::Registry::instance().histogram("sim.decode_us");
  const std::uint64_t decodes = decode_us.count();
  search::Evaluator eval = make_eval(workload);
  eval.set_cache_enabled(memo);
  MemoRun out;
  out.trace = fixed_seed_search(genetic, workers, eval, obj);
  out.simulations = eval.simulations();
  out.cache_hits = eval.cache_hits();
  out.sequence_hits = eval.sequence_hits();
  out.pass_runs = eval.pass_runs();
  out.pass_runs_skipped = eval.pass_runs_skipped();
  out.decodes = decode_us.count() - decodes;
  return out;
}

/// The distinct optimized programs among the fixed-seed random search's
/// candidates: the same 60 sequences drawn again, counted by fingerprint.
std::size_t random_search_programs() {
  const search::Evaluator eval = make_eval();
  const search::SequenceSpace space;
  support::Rng rng(7);
  std::unordered_set<std::uint64_t> prints;
  for (int i = 0; i < 60; ++i)
    prints.insert(ir::fingerprint(eval.optimized(space.sample(rng))));
  return prints.size();
}

// With the memo on, every distinct optimized module simulates exactly once
// and every other evaluation is a cache hit; with it off, every evaluation
// simulates. Either way the trace is the memo-off sequential trace, at
// every worker count, and every simulation decodes its program once. The
// GA's 120 evaluations reach 49 distinct programs, pinned because its seed
// is fixed; the random search's are counted by fingerprint.
TEST(SequenceMemo, TracesAndSimulationsMatchMemoOffAtEveryWidth) {
  for (const bool genetic : {true, false}) {
    const MemoRun reference = run_with_memo(false, genetic, 1);
    ASSERT_EQ(reference.simulations, reference.trace.evaluations);
    const std::size_t programs = genetic ? 49 : random_search_programs();

    for (const bool memo : {true, false}) {
      for (const unsigned workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::string(genetic ? "genetic" : "random") +
                     (memo ? " memo on" : " memo off") +
                     " workers=" + std::to_string(workers));
        const MemoRun run = run_with_memo(memo, genetic, workers);
        expect_same_trace(run.trace, reference.trace);
        EXPECT_EQ(run.simulations + run.cache_hits, run.trace.evaluations);
        EXPECT_EQ(run.decodes, run.simulations);
        if (memo) {
          EXPECT_EQ(run.simulations, programs);
        } else {
          EXPECT_EQ(run.simulations, run.trace.evaluations);
          EXPECT_EQ(run.cache_hits, 0u);
          EXPECT_EQ(run.sequence_hits, 0u);
        }
        if (memo && genetic && workers == 1) {
          // The GA re-breeds sequences it has already scored.
          EXPECT_GT(run.sequence_hits, 0u);
        }
      }
    }
  }
}

// A burst of workers on a candidate that traps: each one throws, none
// leaves an entry behind, and the next evaluation throws again.
TEST(SequenceMemo, TrappingCandidateThrowsForEveryConcurrentCaller) {
  const wl::Workload w = wl::make_workload("dotprod");
  sim::MachineConfig cfg = sim::amd_like();
  cfg.max_instructions =
      search::Evaluator(w.module, cfg).eval_sequence({}).instructions / 2;
  search::Evaluator eval(w.module, cfg);

  constexpr unsigned kThreads = 8;
  std::atomic<unsigned> traps{0};
  {
    std::vector<std::thread> burst;
    burst.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
      burst.emplace_back([&] {
        try {
          eval.eval_sequence({});
        } catch (const sim::TrapError&) {
          traps.fetch_add(1);
        }
      });
    for (auto& th : burst) th.join();
  }
  EXPECT_EQ(traps.load(), kThreads);
  EXPECT_EQ(eval.simulations(), 0u);
  EXPECT_EQ(eval.cache_hits(), 0u);
  EXPECT_THROW(eval.eval_sequence({}), sim::TrapError);
}

// --- prefix states ----------------------------------------------------------

/// The evaluator's sequence key: one byte per PassId.
std::string key_of(const std::vector<opt::PassId>& seq) {
  std::string key;
  for (const opt::PassId p : seq) key.push_back(static_cast<char>(p));
  return key;
}

// With the memo on, the GA evaluates through its run's prefix states;
// with it off, every candidate runs all its passes from the base module.
// The states must change nothing but the passes run: the trace, best
// sequence and Pareto front are the memo-off run's at every width, and
// each distinct program still simulates exactly once, decoding once.
// mcf_lite's states carry ~100 KB of initializers each, so only 12-20 fit
// under the byte cap. Each search's seed is fixed, so its count of
// distinct programs is pinned.
TEST(PrefixStates, GaMatchesMemoOffAtEveryWidth) {
  const std::size_t length = search::SequenceSpace{}.length;
  const struct {
    const char* name;
    search::Objective obj;
    std::size_t programs;
  } cases[] = {{"adpcm", search::Objective::Cycles, 74},
               {"adpcm", search::Objective::Pareto, 74},
               {"mcf_lite", search::Objective::Cycles, 50},
               {"mcf_lite", search::Objective::Pareto, 45}};
  for (const auto& [name, obj, programs] : cases) {
    const std::string label =
        std::string(name) +
        (obj == search::Objective::Pareto ? " pareto" : " cycles");
    const MemoRun reference = run_with_memo(false, true, 1, name, obj);
    ASSERT_EQ(reference.pass_runs, reference.trace.evaluations * length)
        << label;
    ASSERT_EQ(reference.pass_runs_skipped, 0u) << label;

    for (const unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(label + " workers=" + std::to_string(workers));
      const MemoRun run = run_with_memo(true, true, workers, name, obj);
      expect_same_trace(run.trace, reference.trace);
      expect_same_front(run.trace.pareto, reference.trace.pareto);
      EXPECT_EQ(run.simulations, programs);
      EXPECT_EQ(run.decodes, run.simulations);
      EXPECT_GT(run.pass_runs_skipped, 0u);
      // Every pass of every pipeline either ran or came from a state.
      // Only one worker fixes the pipeline count: at more, two workers
      // may both miss the sequence index on one new sequence.
      if (workers == 1) {
        const std::size_t pipelines =
            run.simulations + run.cache_hits - run.sequence_hits;
        EXPECT_EQ(run.pass_runs + run.pass_runs_skipped,
                  pipelines * length);
      }
    }
  }
}

TEST(PrefixStates, AdmitsAPrefixOnlyOnItsSecondSighting) {
  ir::Module mod = wl::make_workload("adpcm").module;
  opt::run_pass(opt::PassId::ConstProp, mod);
  const std::string seq = key_of(
      {opt::PassId::ConstProp, opt::PassId::Dce, opt::PassId::Licm});
  search::PrefixStates states;

  states.offer(seq.substr(0, 1), mod);
  EXPECT_EQ(states.size(), 0u);
  EXPECT_EQ(states.bytes(), 0u);
  EXPECT_EQ(states.longest_prefix(seq).first, 0u);

  states.offer(seq.substr(0, 1), mod);
  EXPECT_EQ(states.size(), 1u);
  EXPECT_GT(states.bytes(), 0u);
  const auto [len, state] = states.longest_prefix(seq);
  EXPECT_EQ(len, 1u);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(ir::fingerprint(*state), ir::fingerprint(mod));

  // A stored prefix is not stored twice.
  const std::size_t bytes = states.bytes();
  states.offer(seq.substr(0, 1), mod);
  EXPECT_EQ(states.size(), 1u);
  EXPECT_EQ(states.bytes(), bytes);
}

TEST(PrefixStates, LookupReturnsTheLongestStoredProperPrefix) {
  const ir::Module base = wl::make_workload("adpcm").module;
  const std::vector<opt::PassId> passes = {
      opt::PassId::ConstProp, opt::PassId::Dce, opt::PassId::Licm,
      opt::PassId::Schedule};
  const std::string seq = key_of(passes);
  // States after 1 and after 3 passes, each offered twice.
  ir::Module after1 = base;
  opt::run_pass(passes[0], after1);
  ir::Module after3 = after1;
  opt::run_pass(passes[1], after3);
  opt::run_pass(passes[2], after3);
  search::PrefixStates states;
  for (int i = 0; i < 2; ++i) {
    states.offer(seq.substr(0, 1), after1);
    states.offer(seq.substr(0, 3), after3);
  }
  ASSERT_EQ(states.size(), 2u);

  auto expect_prefix = [&](const std::string& query, std::size_t want,
                           const ir::Module* module) {
    SCOPED_TRACE("query length " + std::to_string(query.size()));
    const auto [len, state] = states.longest_prefix(query);
    EXPECT_EQ(len, want);
    if (module == nullptr) {
      EXPECT_EQ(state, nullptr);
    } else {
      ASSERT_NE(state, nullptr);
      EXPECT_EQ(ir::fingerprint(*state), ir::fingerprint(*module));
    }
  };
  expect_prefix(seq, 3, &after3);
  expect_prefix(seq + key_of({opt::PassId::Cse}), 3, &after3);
  // Proper prefixes only: a sequence is never its own prefix.
  expect_prefix(seq.substr(0, 3), 1, &after1);
  expect_prefix(seq.substr(0, 2) + key_of({opt::PassId::Cse}), 1, &after1);
  expect_prefix(seq.substr(0, 1), 0, nullptr);
  expect_prefix(key_of({opt::PassId::Cse, opt::PassId::ConstProp}), 0,
                nullptr);
}

TEST(PrefixStates, StoredBytesNeverExceedTheCap) {
  // mcf_lite states are the large ones: 105-175 KB with initializers, so
  // 26 of them overflow the 2 MiB cap.
  ir::Module mod = wl::make_workload("mcf_lite").module;
  constexpr std::size_t cap = search::PrefixStates::kCapBytes;
  search::PrefixStates states;
  const std::vector<opt::PassId> passes = opt::sequence_space();
  std::size_t offered = 0;
  for (const opt::PassId first : passes) {
    for (const opt::PassId second : {opt::PassId::Dce, opt::PassId::Cse}) {
      const std::string prefix = key_of({first, second});
      states.offer(prefix, mod);
      states.offer(prefix, mod);
      ++offered;
      EXPECT_LE(states.bytes(), cap);
      EXPECT_EQ(states.longest_prefix(prefix + prefix).first, 2u);
    }
  }
  // The oldest states were evicted to make room.
  EXPECT_LT(states.size(), offered);
  EXPECT_GT(states.bytes(), cap / 2);
  EXPECT_EQ(states.longest_prefix(key_of({passes[0], opt::PassId::Dce,
                                          opt::PassId::Licm}))
                .first,
            0u);

  // A state larger than the whole cap is never stored, and evicts nothing.
  const std::size_t held = states.size();
  const std::size_t bytes = states.bytes();
  ir::Global big;
  big.name = "big";
  big.count = cap / sizeof(std::int64_t) + 1;
  big.init.assign(big.count, 1);
  mod.add_global(std::move(big));
  states.offer("a", mod);
  states.offer("a", mod);
  EXPECT_EQ(states.longest_prefix("ab").first, 0u);
  EXPECT_EQ(states.size(), held);
  EXPECT_EQ(states.bytes(), bytes);
}

TEST(PrefixStates, NothingIsHeldAfterGeneticSearchReturns) {
  const obs::Gauge held =
      obs::Registry::instance().gauge("search.prefix_states.bytes");
  const std::int64_t before = held.value();
  {
    // The gauge follows a store's bytes and drops them on destruction.
    search::PrefixStates states;
    const ir::Module mod = wl::make_workload("adpcm").module;
    states.offer("a", mod);
    states.offer("a", mod);
    EXPECT_EQ(held.value() - before,
              static_cast<std::int64_t>(states.bytes()));
  }
  EXPECT_EQ(held.value(), before);

  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const MemoRun run = run_with_memo(true, true, workers, "adpcm");
    EXPECT_GT(run.pass_runs_skipped, 0u);  // the run did hold states
    EXPECT_EQ(held.value(), before);
  }
}

// A candidate whose simulation traps still stores the prefix states its
// passes produced (they are pure), but leaves no sequence-index or memo
// entry: it throws on every evaluation, also when it starts from a state.
TEST(PrefixStates, TrappingCandidateLeavesNoIndexOrMemoEntry) {
  const wl::Workload w = wl::make_workload("dotprod");
  const std::vector<opt::PassId> seq = {
      opt::PassId::CopyProp, opt::PassId::Peephole, opt::PassId::Dce};
  sim::MachineConfig cfg = sim::amd_like();
  cfg.max_instructions =
      search::Evaluator(w.module, cfg).eval_sequence(seq).instructions / 2;
  search::Evaluator eval(w.module, cfg);
  search::PrefixStates states;

  for (int i = 0; i < 3; ++i)
    EXPECT_THROW(eval.eval_sequence(seq, states), sim::TrapError) << i;
  // The second sighting stored both proper prefixes; the third evaluation
  // started from the longer one.
  EXPECT_EQ(states.size(), 2u);
  EXPECT_EQ(eval.pass_runs_skipped(), 2u);
  EXPECT_EQ(eval.pass_runs(), 3u + 3u + 1u);
  EXPECT_EQ(eval.simulations(), 0u);
  EXPECT_EQ(eval.cache_hits(), 0u);
  EXPECT_EQ(eval.sequence_hits(), 0u);
  EXPECT_THROW(eval.eval_sequence(seq), sim::TrapError);
  EXPECT_THROW(eval.eval_sequence(seq, states), sim::TrapError);
  EXPECT_EQ(eval.cache_hits(), 0u);
}

TEST(EvaluatorStampede, CacheDisabledSimulatesEveryCall) {
  search::Evaluator eval = make_eval();
  eval.set_cache_enabled(false);
  const std::vector<opt::PassId> seq;
  eval.eval_sequence(seq);
  eval.eval_sequence(seq);
  EXPECT_EQ(eval.simulations(), 2u);
  EXPECT_EQ(eval.cache_hits(), 0u);
}

// --- per-thread simulators --------------------------------------------------

void expect_same_result(const search::EvalResult& got,
                        const search::EvalResult& want) {
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.code_size, want.code_size);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.counters.v, want.counters.v);
}

TEST(ThreadSimulator, InterleavedEvaluatorsMatchSeparateRuns) {
  // As in svc, one pool's threads serve evaluators of different programs
  // and machines; here they alternate candidate by candidate, so a
  // thread's simulator changes key between most candidates.
  const search::SequenceSpace space;
  support::Rng rng(31);
  std::vector<std::vector<opt::PassId>> seqs;
  for (int i = 0; i < 24; ++i) seqs.push_back(space.sample(rng));
  const std::pair<const char*, sim::MachineConfig> sides[2] = {
      {"mcf_lite", sim::amd_like()}, {"linklist", sim::c6713_like()}};

  std::vector<search::SearchTrace> alone_traces(2);
  std::vector<std::vector<search::EvalResult>> alone(2);
  std::vector<std::size_t> alone_sims(2);
  for (int k = 0; k < 2; ++k) {
    search::Evaluator eval(wl::make_workload(sides[k].first).module,
                           sides[k].second);
    for (const auto& seq : seqs) {
      alone[k].push_back(eval.eval_sequence(seq));
      alone_traces[k].record(seq, alone[k].back().cycles);
    }
    alone_sims[k] = eval.simulations();
  }

  search::Evaluator a(wl::make_workload(sides[0].first).module,
                      sides[0].second);
  search::Evaluator b(wl::make_workload(sides[1].first).module,
                      sides[1].second);
  search::Evaluator* const evals[2] = {&a, &b};
  std::vector<std::vector<search::EvalResult>> shared(
      2, std::vector<search::EvalResult>(seqs.size()));
  {
    support::ThreadPool pool(2);
    for (std::size_t i = 0; i < seqs.size(); ++i)
      for (int k = 0; k < 2; ++k)
        pool.submit(
            [&, i, k] { shared[k][i] = evals[k]->eval_sequence(seqs[i]); });
    pool.wait_idle();
  }
  for (int k = 0; k < 2; ++k) {
    SCOPED_TRACE(sides[k].first);
    search::SearchTrace trace;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      expect_same_result(shared[k][i], alone[k][i]);
      trace.record(seqs[i], shared[k][i].cycles);
    }
    expect_same_trace(trace, alone_traces[k]);
    EXPECT_EQ(evals[k]->simulations(), alone_sims[k]);
  }
}

/// main() loops as many times as its one global says: same layout and
/// code for every `trips`, different data.
ir::Module counted_loop(std::int64_t trips) {
  ir::Module m;
  ir::Global n;
  n.name = "n";
  n.count = 1;
  n.init = {trips};
  m.add_global(n);
  ir::FunctionBuilder b(m, "main", 0);
  const ir::Reg limit = b.load(b.global_addr(0), 0, ir::MemWidth::W8);
  const ir::Reg i = b.fresh();
  b.mov_to(i, b.imm(0));
  const ir::BlockId head = b.new_block();
  const ir::BlockId body = b.new_block();
  const ir::BlockId done = b.new_block();
  b.jump(head);
  b.switch_to(head);
  b.br(b.cmp_lt(i, limit), body, done);
  b.switch_to(body);
  b.mov_to(i, b.add_i(i, 1));
  b.jump(head);
  b.switch_to(done);
  b.ret(i);
  b.finish();
  return m;
}

TEST(ThreadSimulator, EvaluatorAtAFreedAddressBuildsItsOwnImage) {
  // Each evaluator is freed before the next is made, which may put the
  // next one at the same address. Keyed by address, it would restart the
  // previous one's simulator and loop over the previous one's data.
  const std::vector<opt::PassId> seq = {opt::PassId::Dce};
  for (const std::int64_t trips : {10, 50, 90}) {
    SCOPED_TRACE("trips=" + std::to_string(trips));
    auto eval = std::make_unique<search::Evaluator>(counted_loop(trips),
                                                    sim::amd_like());
    const sim::RunResult want =
        sim::Simulator(eval->optimized(seq), sim::amd_like()).run();
    const search::EvalResult got = eval->eval_sequence(seq);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.counters.v, want.counters.v);
  }
}

TEST(ThreadSimulator, BuildsTheInitialImageOncePerPointerWidth) {
  // Candidates alternate between pointer widths 8 and 4 on one thread.
  using opt::PassId;
  const std::vector<std::vector<PassId>> seqs = {
      {PassId::Dce},        {PassId::PtrCompress},
      {PassId::Cse},        {PassId::PtrCompress, PassId::Dce},
      {PassId::Licm},       {PassId::Cse, PassId::PtrCompress},
      {PassId::Peephole}};
  search::Evaluator eval(wl::make_workload("mcf_lite").module,
                         sim::amd_like());
  std::vector<sim::RunResult> want;
  for (const auto& seq : seqs)
    want.push_back(sim::Simulator(eval.optimized(seq), sim::amd_like()).run());

  const auto image_builds = [] {
    return obs::Registry::instance().snapshot().counter_value(
        "sim.image_builds");
  };
  const std::uint64_t before = image_builds();
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    const search::EvalResult got = eval.eval_sequence(seqs[i]);
    EXPECT_EQ(got.cycles, want[i].cycles);
    EXPECT_EQ(got.instructions, want[i].instructions);
    EXPECT_EQ(got.counters.v, want[i].counters.v);
  }
  EXPECT_EQ(image_builds() - before, 2u);
}

}  // namespace
