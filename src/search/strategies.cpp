#include "search/strategies.hpp"

#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"
#include "search/seedbank.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace ilc::search {

namespace {

/// Evaluate a pre-sampled candidate batch and commit it to the trace in
/// submission order. The evaluation itself consumes no RNG, so fanning it
/// out over the pool cannot perturb a fixed-seed run. Every iteration runs
/// under the caller's current span, so a candidate's spans join the
/// caller's trace whichever thread simulates it.
void eval_batch(Evaluator& eval, const std::vector<std::vector<opt::PassId>>& seqs,
                Objective obj, support::ThreadPool* pool, SearchTrace& trace) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> metrics(seqs.size());
  const obs::SpanContext caller = obs::Tracer::current();
  support::parallel_for(pool, 0, seqs.size(), [&](std::size_t i) {
    obs::TraceScope scope(caller);
    const EvalResult r = eval.eval_sequence(seqs[i]);
    metrics[i] = {r.cycles, r.code_size};
  });
  for (std::size_t i = 0; i < seqs.size(); ++i)
    trace.record(seqs[i], metrics[i].first, metrics[i].second, obj);
}

}  // namespace

void SearchTrace::record(const std::vector<opt::PassId>& seq,
                         std::uint64_t metric) {
  ++evaluations;
  if (metric < best_metric) {
    best_metric = metric;
    best_seq = seq;
  }
  best_so_far.push_back(best_metric);
}

void SearchTrace::record(const std::vector<opt::PassId>& seq,
                         std::uint64_t cycles, std::uint64_t code_size,
                         Objective obj) {
  if (obj == Objective::Pareto) pareto.insert({seq, cycles, code_size});
  record(seq, obj == Objective::CodeSize ? code_size : cycles);
}

SearchTrace random_search(Evaluator& eval, const SequenceSpace& space,
                          support::Rng& rng, unsigned budget, Objective obj,
                          support::ThreadPool* pool) {
  SearchTrace trace;
  std::vector<std::vector<opt::PassId>> seqs(budget);
  for (auto& seq : seqs) seq = space.sample(rng);
  eval_batch(eval, seqs, obj, pool, trace);
  return trace;
}

SearchTrace seeded_random_search(Evaluator& eval, const SequenceSpace& space,
                                 const Seeding& seeding, support::Rng& rng,
                                 unsigned budget, Objective obj,
                                 support::ThreadPool* pool) {
  SearchTrace trace;
  std::vector<std::vector<opt::PassId>> seqs;
  seqs.reserve(budget);
  for (const auto& seed : seeding.seeds) {
    if (seqs.size() >= budget) break;
    if (space.valid(seed)) seqs.push_back(seed);
  }
  const std::size_t tail = budget - seqs.size();
  if (tail > 0) {
    const bool filter = seeding.estimator != nullptr && seeding.oversample > 1;
    const std::size_t draw = filter ? tail * seeding.oversample : tail;
    std::vector<std::vector<opt::PassId>> cands(draw);
    for (auto& seq : cands) seq = space.sample(rng);
    if (filter) {
      for (const std::size_t i : seeding.estimator->keep_best(cands, tail))
        seqs.push_back(std::move(cands[i]));
    } else {
      for (auto& seq : cands) seqs.push_back(std::move(seq));
    }
  }
  eval_batch(eval, seqs, obj, pool, trace);
  return trace;
}

SearchTrace generator_search(
    Evaluator& eval, const std::function<std::vector<opt::PassId>()>& gen,
    unsigned budget, Objective obj, support::ThreadPool* pool) {
  SearchTrace trace;
  std::vector<std::vector<opt::PassId>> seqs(budget);
  for (auto& seq : seqs) seq = gen();
  eval_batch(eval, seqs, obj, pool, trace);
  return trace;
}

SearchTrace greedy_search(Evaluator& eval, const SequenceSpace& space,
                          support::Rng& rng, unsigned budget, Objective obj) {
  SearchTrace trace;
  std::vector<opt::PassId> current = space.sample(rng);
  std::uint64_t current_metric =
      metric_of(eval.eval_sequence(current), obj);
  trace.record(current, current_metric);
  unsigned stuck = 0;

  while (trace.evaluations < budget) {
    // Mutate one position to a random (valid) alternative.
    std::vector<opt::PassId> cand = current;
    for (int tries = 0; tries < 32; ++tries) {
      cand = current;
      const std::size_t pos = rng.next_below(space.length);
      cand[pos] = space.passes[rng.next_below(space.passes.size())];
      if (space.valid(cand)) break;
    }
    if (!space.valid(cand)) cand = space.sample(rng);

    const std::uint64_t m = metric_of(eval.eval_sequence(cand), obj);
    trace.record(cand, m);
    if (m < current_metric) {
      current = cand;
      current_metric = m;
      stuck = 0;
    } else if (++stuck >= 2 * space.length * space.passes.size()) {
      current = space.sample(rng);  // random restart
      if (trace.evaluations >= budget) break;
      current_metric = metric_of(eval.eval_sequence(current), obj);
      trace.record(current, current_metric);
      stuck = 0;
    }
  }
  return trace;
}

std::vector<SpacePoint> enumerate_space(Evaluator& eval,
                                        const SequenceSpace& space,
                                        support::Rng& rng,
                                        std::uint64_t budget) {
  std::vector<SpacePoint> points;
  const std::uint64_t raw = space.raw_count();

  auto consider = [&](std::uint64_t raw_index) {
    const auto seq = space.at_raw(raw_index);
    if (!space.valid(seq)) return;
    SpacePoint pt;
    pt.seq = seq;
    pt.cycles = eval.eval_sequence(seq).cycles;
    points.push_back(std::move(pt));
  };

  if (space.count() <= budget) {
    for (std::uint64_t i = 0; i < raw; ++i) consider(i);
  } else {
    std::unordered_set<std::uint64_t> chosen;
    while (points.size() < budget) {
      const std::uint64_t i = rng.next_below(raw);
      if (!chosen.insert(i).second) continue;
      consider(i);
    }
  }
  return points;
}

std::vector<FlagPoint> flag_search(Evaluator& eval, support::Rng& rng,
                                   unsigned budget) {
  std::vector<FlagPoint> out;
  std::unordered_set<std::uint32_t> seen;

  auto consider = [&](const opt::OptFlags& f) {
    if (!seen.insert(f.encode()).second) return;
    out.push_back({f, eval.eval_flags(f)});
  };

  consider(opt::o0_flags());
  consider(opt::fast_flags());
  {
    // FAST + pointer compression: the layout-changing variant a one-size
    // -fits-all -Ofast never tries but the setting space contains.
    opt::OptFlags f = opt::fast_flags();
    f.ptrcompress = true;
    consider(f);
  }
  while (out.size() < budget) {
    const auto bits =
        static_cast<std::uint32_t>(rng.next_below(opt::OptFlags::kEncodings));
    consider(opt::OptFlags::decode(bits));
  }
  return out;
}

}  // namespace ilc::search
