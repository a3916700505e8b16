// Search-layer tests: evaluator caching (the fingerprint memo and the
// sequence index in front of it), sequence-space combinatorics,
// strategy behaviour (random / greedy / GA / generator), enumeration, and
// the FOCUSSED model's learning behaviour.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ir/fingerprint.hpp"
#include "kb/knowledge_base.hpp"
#include "obs/metrics.hpp"
#include "search/evaluator.hpp"
#include "search/focused.hpp"
#include "search/pareto.hpp"
#include "search/seedbank.hpp"
#include "search/space.hpp"
#include "search/strategies.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ilc;
using namespace ilc::search;
using opt::PassId;

TEST(SpaceMath, CountMatchesConstraint) {
  SequenceSpace space;
  // 13 passes, 3 unrolls, length 5: 10^5 + 5*3*10^4 = 250,000.
  EXPECT_EQ(space.count(), 250000u);
  EXPECT_EQ(space.raw_count(), 371293u);  // 13^5
  SequenceSpace unconstrained = space;
  unconstrained.unroll_at_most_once = false;
  EXPECT_EQ(unconstrained.count(), 371293u);
}

TEST(SpaceMath, ValidRejectsDoubleUnroll) {
  SequenceSpace space;
  std::vector<PassId> two_unrolls = {PassId::Unroll2, PassId::Unroll4,
                                     PassId::Dce, PassId::Dce, PassId::Dce};
  EXPECT_FALSE(space.valid(two_unrolls));
  std::vector<PassId> one_unroll = {PassId::Unroll2, PassId::Cse,
                                    PassId::Dce, PassId::Dce, PassId::Dce};
  EXPECT_TRUE(space.valid(one_unroll));
  std::vector<PassId> wrong_len = {PassId::Dce};
  EXPECT_FALSE(space.valid(wrong_len));
  std::vector<PassId> outside = {PassId::PtrCompress, PassId::Dce,
                                 PassId::Dce, PassId::Dce, PassId::Dce};
  EXPECT_FALSE(space.valid(outside));  // PtrCompress not in the 13
}

TEST(SpaceMath, SamplesAreValidAndVaried) {
  SequenceSpace space;
  support::Rng rng(5);
  std::set<std::string> distinct;
  for (int i = 0; i < 100; ++i) {
    const auto seq = space.sample(rng);
    EXPECT_TRUE(space.valid(seq));
    distinct.insert(sequence_to_string(seq));
  }
  EXPECT_GT(distinct.size(), 90u);
}

TEST(SpaceMath, AtRawEnumeratesOdometer) {
  SequenceSpace space;
  const auto first = space.at_raw(0);
  for (PassId id : first) EXPECT_EQ(id, space.passes[0]);
  const auto second = space.at_raw(1);
  EXPECT_EQ(second[0], space.passes[1]);
  EXPECT_EQ(second[1], space.passes[0]);
}

TEST(SequenceStrings, RoundTrip) {
  const std::vector<PassId> seq = {PassId::ConstProp, PassId::Unroll4,
                                   PassId::Dce};
  EXPECT_EQ(sequence_from_string(sequence_to_string(seq)), seq);
  EXPECT_TRUE(sequence_from_string("").empty());
}

TEST(EvaluatorCache, CollapsesEquivalentSequences) {
  wl::Workload w = wl::make_workload("crc32");
  Evaluator eval(w.module, sim::amd_like());
  // dce twice == dce-heavy sequences often converge to identical code.
  const auto r1 = eval.eval_sequence({PassId::Dce});
  const auto r2 = eval.eval_sequence({PassId::Dce, PassId::Dce});
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_GE(eval.cache_hits(), 1u);
  EXPECT_LE(eval.simulations(), 2u);
}

TEST(EvaluatorCache, DisableForcesResimulation) {
  wl::Workload w = wl::make_workload("crc32");
  Evaluator eval(w.module, sim::amd_like());
  eval.set_cache_enabled(false);
  eval.eval_sequence({PassId::Dce});
  eval.eval_sequence({PassId::Dce});
  EXPECT_EQ(eval.simulations(), 2u);
  EXPECT_EQ(eval.cache_hits(), 0u);
  EXPECT_EQ(eval.sequence_hits(), 0u);
}

std::uint64_t registry_counter(const std::string& name) {
  const obs::RegistrySnapshot snap = obs::Registry::instance().snapshot();
  const obs::CounterValue* c = snap.counter(name);
  return c ? c->value : 0;
}

// Both memo levels, counted exactly: a repeated sequence is a sequence
// hit, a new sequence that optimizes to already-seen code is a
// fingerprint hit, and anything else simulates. A repeat returns the
// first evaluation's result, field for field.
TEST(EvaluatorCache, RepeatsCountExactlyAtBothLevels) {
  wl::Workload w = wl::make_workload("crc32");
  Evaluator eval(w.module, sim::amd_like());
  const std::vector<std::vector<PassId>> calls = {
      {},
      {PassId::Dce},
      {PassId::Dce, PassId::Dce},
      {PassId::Dce},
      {},
      {PassId::Cse, PassId::Dce},
      {PassId::Dce, PassId::Dce},
      {PassId::Dce, PassId::Cse},
      {PassId::Dce}};

  std::set<std::vector<PassId>> seen_seqs;
  std::set<std::uint64_t> seen_fps;
  std::size_t sims = 0, fp_hits = 0, seq_hits = 0;
  for (const auto& seq : calls) {
    const std::uint64_t fp = ir::fingerprint(eval.optimized(seq));
    if (!seen_seqs.insert(seq).second) ++seq_hits;
    else if (!seen_fps.insert(fp).second) ++fp_hits;
    else ++sims;
  }
  ASSERT_GT(fp_hits, 0u) << "the list must exercise the fingerprint level";
  ASSERT_GT(seq_hits, 0u);

  const std::uint64_t reg_hits = registry_counter("search.eval_cache.hits");
  const std::uint64_t reg_seq = registry_counter("search.seq_memo.hits");
  std::map<std::vector<PassId>, EvalResult> first;
  for (const auto& seq : calls) {
    const EvalResult r = eval.eval_sequence(seq);
    const auto [it, fresh] = first.emplace(seq, r);
    if (fresh) continue;
    EXPECT_EQ(r.cycles, it->second.cycles);
    EXPECT_EQ(r.code_size, it->second.code_size);
    EXPECT_EQ(r.instructions, it->second.instructions);
    EXPECT_EQ(r.counters, it->second.counters);
  }

  EXPECT_EQ(eval.simulations(), sims);
  EXPECT_EQ(eval.cache_hits(), fp_hits + seq_hits);
  EXPECT_EQ(eval.sequence_hits(), seq_hits);
  EXPECT_EQ(eval.simulations() + eval.cache_hits(), calls.size());
  EXPECT_EQ(registry_counter("search.eval_cache.hits") - reg_hits,
            fp_hits + seq_hits);
  EXPECT_EQ(registry_counter("search.seq_memo.hits") - reg_seq, seq_hits);
}

TEST(EvaluatorCache, FlagsAndTheirPipelineShareOneEntry) {
  wl::Workload w = wl::make_workload("crc32");
  Evaluator eval(w.module, sim::amd_like());
  const opt::OptFlags fast = opt::fast_flags();
  const EvalResult by_flags = eval.eval_flags(fast);
  const EvalResult by_seq = eval.eval_sequence(opt::pipeline(fast));
  EXPECT_EQ(by_flags.cycles, by_seq.cycles);
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_EQ(eval.sequence_hits(), 1u);

  // And the other way round.
  opt::OptFlags licm;
  licm.licm = true;
  eval.eval_sequence(opt::pipeline(licm));
  eval.eval_flags(licm);
  EXPECT_EQ(eval.sequence_hits(), 2u);
  EXPECT_EQ(eval.simulations() + eval.cache_hits(), 4u);
}

// A candidate whose simulation traps leaves no entry at either level: it
// throws again on every evaluation, while completing candidates of the
// same evaluator memoize as usual.
TEST(EvaluatorCache, TrappingCandidateThrowsEveryTimeAndIsNeverMemoized) {
  wl::Workload w = wl::make_workload("crc32");
  const std::vector<PassId> fast = opt::fast_pipeline();
  const std::uint64_t o0_instrs =
      Evaluator(w.module, sim::amd_like()).eval_sequence({}).instructions;
  const std::uint64_t fast_instrs =
      Evaluator(w.module, sim::amd_like()).eval_sequence(fast).instructions;
  ASSERT_LT(fast_instrs, o0_instrs * 9 / 10);

  // An instruction budget between the two run lengths: -O0 traps, FAST
  // completes.
  sim::MachineConfig cfg = sim::amd_like();
  cfg.max_instructions = (o0_instrs + fast_instrs) / 2;
  Evaluator eval(w.module, cfg);
  for (int i = 0; i < 3; ++i)
    EXPECT_THROW(eval.eval_sequence({}), sim::TrapError) << i;
  EXPECT_EQ(eval.simulations(), 0u);
  EXPECT_EQ(eval.cache_hits(), 0u);

  eval.eval_sequence(fast);
  eval.eval_sequence(fast);
  EXPECT_EQ(eval.simulations(), 1u);
  EXPECT_EQ(eval.sequence_hits(), 1u);
  EXPECT_THROW(eval.eval_sequence({}), sim::TrapError);
  EXPECT_THROW(eval.eval_flags(opt::o0_flags()), sim::TrapError);
  EXPECT_EQ(eval.cache_hits(), 1u);
}

TEST(EvaluatorResults, OptimizationNeverBreaksProgram) {
  wl::Workload w = wl::make_workload("fir");
  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(3);
  SequenceSpace space;
  for (int i = 0; i < 10; ++i) {
    const auto res = eval.eval_sequence(space.sample(rng));
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.code_size, 0u);
  }
}

TEST(Strategies, TracesAreMonotoneNonIncreasing) {
  wl::Workload w = wl::make_workload("crc32");
  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(11);
  SequenceSpace space;
  for (auto trace :
       {random_search(eval, space, rng, 20),
        greedy_search(eval, space, rng, 20),
        genetic_search(eval, space, rng, 30)}) {
    ASSERT_GE(trace.best_so_far.size(), 18u);
    for (std::size_t i = 1; i < trace.best_so_far.size(); ++i)
      EXPECT_LE(trace.best_so_far[i], trace.best_so_far[i - 1]);
    EXPECT_EQ(trace.best_metric, trace.best_so_far.back());
    EXPECT_TRUE(space.valid(trace.best_seq));
  }
}

TEST(Strategies, SearchBeatsO0) {
  wl::Workload w = wl::make_workload("fir");
  Evaluator eval(w.module, sim::amd_like());
  const auto o0 = eval.eval_sequence({});
  support::Rng rng(17);
  SequenceSpace space;
  const auto trace = random_search(eval, space, rng, 40);
  EXPECT_LT(trace.best_metric, o0.cycles);
}

TEST(Strategies, GaCodeSizeObjectiveShrinksCode) {
  wl::Workload w = wl::make_workload("adpcm");
  Evaluator eval(w.module, sim::amd_like());
  const auto o0 = eval.eval_sequence({});
  support::Rng rng(23);
  SequenceSpace space;
  const auto trace = genetic_search(eval, space, rng, 60,
                                    Objective::CodeSize);
  EXPECT_LT(trace.best_metric, o0.code_size);
}

TEST(Strategies, EnumerationSamplesDistinctValidPoints) {
  wl::Workload w = wl::make_workload("crc32");
  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(31);
  SequenceSpace space;
  const auto points = enumerate_space(eval, space, rng, 50);
  EXPECT_EQ(points.size(), 50u);
  for (const auto& pt : points) {
    EXPECT_TRUE(space.valid(pt.seq));
    EXPECT_GT(pt.cycles, 0u);
  }
}

TEST(Strategies, FlagSearchIncludesAnchors) {
  wl::Workload w = wl::make_workload("crc32");
  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(37);
  const auto points = flag_search(eval, rng, 12);
  EXPECT_EQ(points.size(), 12u);
  EXPECT_EQ(points[0].flags, opt::o0_flags());
  EXPECT_EQ(points[1].flags, opt::fast_flags());
  EXPECT_TRUE(points[2].flags.ptrcompress);
}

// --- FOCUSSED model -------------------------------------------------------

FocusedModel toy_model(FocusedKind kind = FocusedKind::Markov) {
  SequenceSpace space;
  // Two training "programs": one whose good sequences are all licm-ish,
  // one all cse-ish, with well-separated features.
  ProgramSearchData loopy;
  loopy.program = "loopy";
  loopy.features = {10.0, 0.0};
  for (int i = 0; i < 20; ++i)
    loopy.good_seqs.push_back({PassId::Licm, PassId::Unroll4, PassId::Licm,
                               PassId::Schedule, PassId::Dce});
  ProgramSearchData scalar;
  scalar.program = "scalar";
  scalar.features = {0.0, 10.0};
  for (int i = 0; i < 20; ++i)
    scalar.good_seqs.push_back({PassId::Cse, PassId::CopyProp, PassId::Cse,
                                PassId::Peephole, PassId::Dce});
  // mixture=1: the pure 1-NN model selection of Agakov et al.
  return FocusedModel({loopy, scalar}, space, kind, /*mixture=*/1);
}

TEST(Focused, SelectsNearestProgramModel) {
  FocusedModel model = toy_model();
  model.set_target({9.0, 1.0});
  EXPECT_EQ(model.selected_program(), "loopy");
  model.set_target({1.0, 9.0});
  EXPECT_EQ(model.selected_program(), "scalar");
}

TEST(Focused, SamplesConcentrateOnLearnedPasses) {
  FocusedModel model = toy_model();
  model.set_target({9.0, 1.0});
  support::Rng rng(41);
  unsigned licm_hits = 0, total = 0;
  for (int i = 0; i < 100; ++i) {
    const auto seq = model.sample(rng);
    EXPECT_TRUE(model.space().valid(seq));
    for (PassId id : seq) {
      ++total;
      if (id == PassId::Licm || id == PassId::Unroll4 ||
          id == PassId::Schedule || id == PassId::Dce)
        ++licm_hits;
    }
  }
  EXPECT_GT(static_cast<double>(licm_hits) / total, 0.6);
}

TEST(Focused, LogProbRanksLearnedSequencesHigher) {
  FocusedModel model = toy_model();
  model.set_target({9.0, 1.0});
  const double lp_good = model.log_prob(
      {PassId::Licm, PassId::Unroll4, PassId::Licm, PassId::Schedule,
       PassId::Dce});
  const double lp_bad = model.log_prob(
      {PassId::Cse, PassId::CopyProp, PassId::Cse, PassId::Peephole,
       PassId::CopyProp});
  EXPECT_GT(lp_good, lp_bad);
}

TEST(Focused, IidAndMarkovBothSampleValid) {
  for (FocusedKind kind : {FocusedKind::Iid, FocusedKind::Markov}) {
    FocusedModel model = toy_model(kind);
    model.set_target({9.0, 1.0});
    support::Rng rng(43);
    for (int i = 0; i < 20; ++i)
      EXPECT_TRUE(model.space().valid(model.sample(rng)));
  }
}

TEST(Focused, MixtureBlendsNearestComponents) {
  SequenceSpace space;
  ProgramSearchData a, b, far;
  a.program = "a";
  a.features = {0.0, 0.0};
  a.good_seqs.assign(10, {PassId::Licm, PassId::Licm, PassId::Licm,
                          PassId::Licm, PassId::Licm});
  b.program = "b";
  b.features = {1.0, 0.0};
  b.good_seqs.assign(10, {PassId::Cse, PassId::Cse, PassId::Cse,
                          PassId::Cse, PassId::Cse});
  far.program = "far";
  far.features = {100.0, 100.0};
  far.good_seqs.assign(10, {PassId::Dce, PassId::Dce, PassId::Dce,
                            PassId::Dce, PassId::Dce});
  FocusedModel model({a, b, far}, space, FocusedKind::Iid, /*mixture=*/2);
  model.set_target({0.4, 0.0});  // between a and b, far from "far"
  EXPECT_EQ(model.selected_program(), "a");
  // Samples should draw from both near components, none from "far".
  support::Rng rng(53);
  unsigned licm = 0, cse = 0, dce = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    for (PassId id : model.sample(rng)) {
      ++total;
      licm += id == PassId::Licm;
      cse += id == PassId::Cse;
      dce += id == PassId::Dce;
    }
  }
  EXPECT_GT(licm, total / 5);
  EXPECT_GT(cse, total / 10);
  EXPECT_LT(dce, total / 10);
}

TEST(Focused, GeneratorSearchUsesModelSamples) {
  wl::Workload w = wl::make_workload("fir");
  Evaluator eval(w.module, sim::amd_like());
  FocusedModel model = toy_model();
  model.set_target({9.0, 1.0});
  support::Rng rng(47);
  const auto trace = generator_search(
      eval, [&] { return model.sample(rng); }, 15);
  EXPECT_EQ(trace.evaluations, 15u);
  EXPECT_TRUE(model.space().valid(trace.best_seq));
}

// --- GA edge-case regressions ---------------------------------------------

TEST(SpaceMath, UnrollOnlySpaceWaivesAtMostOnceConstraint) {
  // A space of nothing but unroll passes used to make every sequence of
  // length >= 2 invalid under unroll_at_most_once: count() said 0 and
  // sample() rejection-looped forever. The constraint is waived when
  // there is no non-unroll alternative.
  SequenceSpace space;
  space.passes = {PassId::Unroll2, PassId::Unroll4, PassId::Unroll8};
  space.length = 3;
  EXPECT_EQ(space.count(), 27u);
  support::Rng rng(5);
  const auto seq = space.sample(rng);
  EXPECT_TRUE(space.valid(seq));
}

TEST(GaRegression, UnrollOnlySpaceTerminatesWithinBudget) {
  // repair() indexed non_unroll[rng.next_below(0)] for unroll-only
  // spaces — undefined behavior on a child with two unrolls. It now
  // keeps the extra unroll (valid() waives the constraint).
  SequenceSpace space;
  space.passes = {PassId::Unroll2, PassId::Unroll4, PassId::Unroll8};
  space.length = 3;
  wl::Workload w = wl::make_workload("fir");
  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(5);
  const auto trace = genetic_search(eval, space, rng, 24);
  EXPECT_EQ(trace.evaluations, 24u);
  EXPECT_TRUE(space.valid(trace.best_seq));
}

TEST(GaRegression, SurvivorsBelowElitesTerminatesWithinBudget) {
  // elites > population drives the survivor count below params.elites:
  // the old breeding guard computed next.size() - params.elites on
  // unsigned sizes, underflowed, bred zero children, and the generation
  // loop spun forever with zero evaluations of progress.
  wl::Workload w = wl::make_workload("crc32");
  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(3);
  GaParams params;
  params.population = 4;
  params.elites = 8;
  const auto trace =
      genetic_search(eval, SequenceSpace{}, rng, 40, Objective::Cycles, params);
  EXPECT_GE(trace.evaluations, 4u);
  EXPECT_LE(trace.evaluations, 40u);
}

// --- Pareto archive -------------------------------------------------------

TEST(Pareto, DominanceIsStrictOnAtLeastOneAxis) {
  ParetoPoint a{{}, 10, 10};
  ParetoPoint b{{}, 10, 12};
  ParetoPoint c{{}, 12, 8};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_FALSE(dominates(a, c));  // trade-off: neither dominates
  EXPECT_FALSE(dominates(c, a));
  EXPECT_FALSE(dominates(a, a));  // equal points do not dominate
}

TEST(Pareto, InsertPrunesDominatedAndKeepsSortedFront) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.insert({{}, 10, 100}));
  EXPECT_TRUE(archive.insert({{}, 20, 50}));   // trade-off, kept
  EXPECT_FALSE(archive.insert({{}, 25, 60}));  // dominated by (20,50)
  EXPECT_FALSE(archive.insert({{}, 20, 50}));  // duplicate objective vector
  EXPECT_TRUE(archive.insert({{}, 5, 120}));   // new best-cycles corner
  EXPECT_TRUE(archive.insert({{}, 8, 90}));    // dominates (10,100)
  ASSERT_EQ(archive.size(), 3u);
  EXPECT_EQ(archive.front()[0].cycles, 5u);
  EXPECT_EQ(archive.front()[1].cycles, 8u);
  EXPECT_EQ(archive.front()[2].cycles, 20u);
  for (std::size_t i = 1; i < archive.size(); ++i)
    EXPECT_LT(archive.front()[i].code_size, archive.front()[i - 1].code_size);
}

TEST(Pareto, HypervolumeMatchesHandComputedRectangles) {
  ParetoArchive archive;
  archive.insert({{}, 2, 8});
  archive.insert({{}, 5, 4});
  // Reference (10, 10): slabs [2,5)x(10-8) + [5,10)x(10-4) = 6 + 30.
  EXPECT_DOUBLE_EQ(archive.hypervolume(10, 10), 36.0);
  // Points at or beyond the reference contribute nothing.
  archive.insert({{}, 1, 12});
  EXPECT_DOUBLE_EQ(archive.hypervolume(10, 10), 36.0);
  EXPECT_DOUBLE_EQ(ParetoArchive{}.hypervolume(10, 10), 0.0);
}

TEST(Pareto, GaTracksFrontAndProjectsCycles) {
  wl::Workload w = wl::make_workload("adpcm");
  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(23);
  SequenceSpace space;
  const auto trace = genetic_search(eval, space, rng, 60, Objective::Pareto);
  ASSERT_GE(trace.pareto.size(), 1u);
  // The archive's best-cycles corner is the scalar projection.
  EXPECT_EQ(trace.best_metric, trace.pareto.front().front().cycles);
  // Front is non-dominated and sorted by cycles ascending.
  const auto& front = trace.pareto.front();
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].cycles, front[i - 1].cycles);
    EXPECT_LT(front[i].code_size, front[i - 1].code_size);
  }
  const auto o0 = eval.eval_sequence({});
  EXPECT_GT(trace.pareto.hypervolume(o0.cycles + 1, o0.code_size + 1), 0.0);
}

// --- seeding + estimator --------------------------------------------------

TEST(Seeding, EstimatorRecoversLinearTargetRanking) {
  // Target is a pure linear function of the encoding (count of Dce), so
  // ridge regression recovers the ranking exactly.
  SequenceSpace space;
  support::Rng rng(11);
  std::vector<std::vector<PassId>> seqs;
  std::vector<double> rel;
  for (unsigned i = 0; i < 32; ++i) {
    auto seq = space.sample(rng);
    double dce = 0;
    for (PassId p : seq)
      if (p == PassId::Dce) dce += 1.0;
    seqs.push_back(seq);
    rel.push_back(1.0 - 0.1 * dce);
  }
  PerfEstimator est;
  est.fit(seqs, rel);
  ASSERT_TRUE(est.ok());
  const std::vector<PassId> no_dce = {PassId::Licm, PassId::Cse,
                                      PassId::CopyProp, PassId::Peephole,
                                      PassId::Schedule};
  const std::vector<PassId> all_dce = {PassId::Dce, PassId::Dce, PassId::Dce,
                                       PassId::Dce, PassId::Dce};
  EXPECT_LT(est.predict(all_dce), est.predict(no_dce));
}

TEST(Seeding, EstimatorBelowMinRowsStaysOff) {
  PerfEstimator est;
  est.fit({{PassId::Dce, PassId::Cse}}, {0.5});
  EXPECT_FALSE(est.ok());
}

TEST(Seeding, SeededRandomSearchEvaluatesSeedsFirstAndCountsSkips) {
  SequenceSpace space;
  wl::Workload w = wl::make_workload("fir");

  Seeding seeding;
  seeding.seeds = {{PassId::Licm, PassId::Unroll4, PassId::Licm,
                    PassId::Schedule, PassId::Dce},
                   {PassId::Cse, PassId::CopyProp, PassId::Cse,
                    PassId::Peephole, PassId::Dce}};
  Evaluator probe(w.module, sim::amd_like());
  const std::uint64_t first_seed_cycles =
      probe.eval_sequence(seeding.seeds[0]).cycles;

  // Estimator trained on uniform samples; any consistent model works.
  support::Rng train_rng(13);
  std::vector<std::vector<PassId>> seqs;
  std::vector<double> rel;
  for (unsigned i = 0; i < 16; ++i) {
    seqs.push_back(space.sample(train_rng));
    rel.push_back(1.0 - 0.01 * static_cast<double>(i % 5));
  }
  PerfEstimator est;
  est.fit(seqs, rel);
  ASSERT_TRUE(est.ok());
  seeding.estimator = &est;
  seeding.oversample = 3;

  const std::uint64_t skipped_before =
      obs::Registry::instance().counter("search.estimator.skipped").value();
  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(7);
  const auto trace = seeded_random_search(eval, space, seeding, rng, 12);
  EXPECT_EQ(trace.evaluations, 12u);
  EXPECT_EQ(trace.best_so_far[0], first_seed_cycles);
  // 10 tail slots drawn at 3x oversampling: 20 candidates skipped.
  const std::uint64_t skipped_after =
      obs::Registry::instance().counter("search.estimator.skipped").value();
  EXPECT_EQ(skipped_after - skipped_before, 20u);
}

// --- SeedBank -------------------------------------------------------------

kb::KnowledgeBase seed_kb() {
  // Two well-separated program groups: "loopy" programs whose best
  // sequences are licm-ish, "scalar" programs favoring cse. Each program
  // contributes several sequence records so cluster estimators get data.
  kb::KnowledgeBase kb;
  const std::vector<PassId> licm_best = {PassId::Licm, PassId::Unroll4,
                                         PassId::Licm, PassId::Schedule,
                                         PassId::Dce};
  const std::vector<PassId> cse_best = {PassId::Cse, PassId::CopyProp,
                                        PassId::Cse, PassId::Peephole,
                                        PassId::Dce};
  auto add_program = [&kb](const std::string& name,
                           const std::vector<double>& features,
                           const std::vector<PassId>& best) {
    SequenceSpace space;
    support::Rng rng(name.size() * 131 +
                     static_cast<unsigned char>(name.back()));
    for (unsigned i = 0; i < 8; ++i) {
      kb::ExperimentRecord rec;
      rec.program = name;
      rec.machine = "amd";
      rec.kind = "sequence";
      rec.config = sequence_to_string(i == 0 ? best : space.sample(rng));
      rec.cycles = i == 0 ? 100 : 150 + 10 * i;  // best first, rest worse
      rec.code_size = 40 + i;
      rec.static_features = features;
      kb.add(std::move(rec));
    }
  };
  add_program("loopy1", {10.0, 0.0, 1.0}, licm_best);
  add_program("loopy2", {11.0, 0.5, 1.0}, licm_best);
  add_program("scalar1", {0.0, 10.0, 1.0}, cse_best);
  add_program("scalar2", {0.5, 11.0, 1.0}, cse_best);
  return kb;
}

TEST(SeedBank, ClustersProgramsAndServesClusterBestSeeds) {
  SequenceSpace space;
  SeedBankOptions opts;
  opts.clusters = 2;
  const SeedBank bank(seed_kb(), space, opts);
  EXPECT_EQ(bank.num_programs(), 4u);
  EXPECT_EQ(bank.num_clusters(), 2u);

  // A new program near the loopy group inherits the licm-ish best.
  const auto licm_seeds = bank.seeds_for({10.5, 0.2, 1.0}, 4);
  ASSERT_FALSE(licm_seeds.empty());
  const std::vector<PassId> licm_best = {PassId::Licm, PassId::Unroll4,
                                         PassId::Licm, PassId::Schedule,
                                         PassId::Dce};
  EXPECT_EQ(licm_seeds[0], licm_best);

  const auto cse_seeds = bank.seeds_for({0.2, 10.5, 1.0}, 4);
  ASSERT_FALSE(cse_seeds.empty());
  const std::vector<PassId> cse_best = {PassId::Cse, PassId::CopyProp,
                                        PassId::Cse, PassId::Peephole,
                                        PassId::Dce};
  EXPECT_EQ(cse_seeds[0], cse_best);

  // Different groups land in different clusters.
  EXPECT_NE(bank.assign({10.5, 0.2, 1.0}), bank.assign({0.2, 10.5, 1.0}));

  // Each cluster saw 16 runs: the estimator has enough rows.
  EXPECT_NE(bank.estimator_for({10.5, 0.2, 1.0}), nullptr);
  for (const auto& seq : licm_seeds) EXPECT_TRUE(space.valid(seq));
}

TEST(SeedBank, LeaveOneOutExcludesTheTargetProgram) {
  SequenceSpace space;
  SeedBankOptions opts;
  opts.clusters = 2;
  opts.exclude_program = "loopy1";
  const SeedBank bank(seed_kb(), space, opts);
  EXPECT_EQ(bank.num_programs(), 3u);
}

TEST(SeedBank, RebuildIsDeterministic) {
  SequenceSpace space;
  SeedBankOptions opts;
  opts.clusters = 2;
  const SeedBank a(seed_kb(), space, opts);
  const SeedBank b(seed_kb(), space, opts);
  const std::vector<double> probe = {10.5, 0.2, 1.0};
  EXPECT_EQ(a.assign(probe), b.assign(probe));
  EXPECT_EQ(a.seeds_for(probe), b.seeds_for(probe));
}

TEST(SeedBank, EmptyKbYieldsEmptyBankAndEmptySeeding) {
  const SeedBank bank(kb::KnowledgeBase{}, SequenceSpace{});
  EXPECT_TRUE(bank.empty());
  const Seeding s = bank.seeding_for({1.0, 2.0, 3.0});
  EXPECT_TRUE(s.seeds.empty());
  EXPECT_EQ(s.estimator, nullptr);
}

TEST(Seeding, GaSeedsEnterInitialPopulation) {
  // Budget == 1: only the first individual is ever evaluated, and seeds
  // occupy the head of the initial population.
  SequenceSpace space;
  wl::Workload w = wl::make_workload("fir");
  Evaluator probe(w.module, sim::amd_like());
  const std::vector<PassId> seed = {PassId::Licm, PassId::Unroll4,
                                    PassId::Licm, PassId::Schedule,
                                    PassId::Dce};
  const std::uint64_t seed_cycles = probe.eval_sequence(seed).cycles;

  Evaluator eval(w.module, sim::amd_like());
  support::Rng rng(19);
  GaParams params;
  params.seeds = {seed};
  const auto trace =
      genetic_search(eval, space, rng, 1, Objective::Cycles, params);
  ASSERT_EQ(trace.evaluations, 1u);
  EXPECT_EQ(trace.best_metric, seed_cycles);
}

}  // namespace
