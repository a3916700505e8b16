// Generational genetic algorithm over pass sequences, after Cooper,
// Schielke & Subramanian's code-size GA (paper Section IV): tournament
// selection, single-point crossover, per-gene mutation, elitism.
//
// Evaluation is batched per generation: breeding (the only RNG consumer)
// runs sequentially, then the new individuals are scored concurrently on a
// thread pool and committed to the trace in population order. Because a
// candidate's metric is a pure function of its genes, the trace — and
// therefore selection in every later generation — is bit-identical to the
// sequential GA for a fixed seed, at any GaParams::workers.
//
// Children share their parents' heads, so each run keeps a PrefixStates
// (search/prefix_states.hpp) that its workers share: a child that misses
// the evaluator's sequence index starts from the module after the longest
// stored prefix of its genes. The store lives exactly as long as the run.
//
// Round two extensions (ROADMAP item 3): the initial population can be
// seeded from a SeedBank cluster's best-known sequences; a learned
// estimator can oversample-and-prefilter children before simulation
// budget is spent; and Objective::Pareto switches selection to
// NSGA-II-lite (non-dominated rank, then crowding distance, with
// deterministic tie-breaks) while maintaining the trace's Pareto archive.
#include "search/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/prefix_states.hpp"
#include "search/seedbank.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace ilc::search {

namespace {

// Each parent is the best of kTournament uniform draws from the
// population; a child is a single-point crossover of its two parents with
// probability kCrossoverRate, else a copy of the first.
constexpr unsigned kTournament = 3;
constexpr double kCrossoverRate = 0.8;

obs::Counter& c_ga_generations() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.ga.generations");
  return c;
}
obs::Counter& c_ga_evaluations() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.ga.evaluations");
  return c;
}
obs::Gauge& g_ga_last_best() {
  static obs::Gauge g =
      obs::Registry::instance().gauge("search.ga.last_best_metric");
  return g;
}

struct Individual {
  std::vector<opt::PassId> genes;
  std::uint64_t metric = ~0ULL;
  std::uint64_t cycles = ~0ULL;
  std::uint64_t code_size = ~0ULL;
  // NSGA-II-lite keys, valid only under Objective::Pareto after
  // assign_pareto_keys(). Unevaluated individuals keep rank ~0u and sort
  // last, exactly as metric ~0ULL does in scalar mode.
  unsigned rank = ~0u;
  double crowding = 0.0;
};

bool pareto_dominates(const Individual& a, const Individual& b) {
  if (a.cycles > b.cycles || a.code_size > b.code_size) return false;
  return a.cycles < b.cycles || a.code_size < b.code_size;
}

/// Non-dominated sorting + crowding distance over the evaluated members.
/// O(n^2) peeling — populations are tens of individuals. Deterministic:
/// fronts are peeled in index order and crowding uses a (cycles,
/// code_size, index) sort.
void assign_pareto_keys(std::vector<Individual>& pop) {
  const std::size_t n = pop.size();
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n; ++i) {
    pop[i].rank = ~0u;
    pop[i].crowding = 0.0;
    if (pop[i].metric != ~0ULL) todo.push_back(i);
  }
  std::vector<char> done(n, 0);
  std::size_t remaining = todo.size();
  unsigned r = 0;
  while (remaining > 0) {
    std::vector<std::size_t> front;
    for (std::size_t i : todo) {
      if (done[i]) continue;
      bool dominated = false;
      for (std::size_t j : todo) {
        if (done[j] || j == i) continue;
        if (pareto_dominates(pop[j], pop[i])) {
          dominated = true;
          break;
        }
      }
      if (!dominated) front.push_back(i);
    }
    for (std::size_t i : front) {
      pop[i].rank = r;
      done[i] = 1;
    }
    remaining -= front.size();

    // Crowding distance along the front: boundary points get infinity,
    // interior points the normalized neighbor gap summed over both
    // objectives (cycles ascend, code_size descends along the sort).
    std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
      if (pop[a].cycles != pop[b].cycles) return pop[a].cycles < pop[b].cycles;
      if (pop[a].code_size != pop[b].code_size)
        return pop[a].code_size < pop[b].code_size;
      return a < b;
    });
    if (front.size() <= 2) {
      for (std::size_t i : front)
        pop[i].crowding = std::numeric_limits<double>::infinity();
    } else {
      const double c_range =
          static_cast<double>(pop[front.back()].cycles) -
          static_cast<double>(pop[front.front()].cycles);
      double s_min = std::numeric_limits<double>::infinity();
      double s_max = -std::numeric_limits<double>::infinity();
      for (std::size_t i : front) {
        s_min = std::min(s_min, static_cast<double>(pop[i].code_size));
        s_max = std::max(s_max, static_cast<double>(pop[i].code_size));
      }
      const double s_range = s_max - s_min;
      pop[front.front()].crowding = std::numeric_limits<double>::infinity();
      pop[front.back()].crowding = std::numeric_limits<double>::infinity();
      for (std::size_t k = 1; k + 1 < front.size(); ++k) {
        double d = 0.0;
        if (c_range > 0)
          d += (static_cast<double>(pop[front[k + 1]].cycles) -
                static_cast<double>(pop[front[k - 1]].cycles)) /
               c_range;
        if (s_range > 0)
          d += std::abs(static_cast<double>(pop[front[k - 1]].code_size) -
                        static_cast<double>(pop[front[k + 1]].code_size)) /
               s_range;
        pop[front[k]].crowding = d;
      }
    }
    ++r;
  }
}

void repair(std::vector<opt::PassId>& genes, const SequenceSpace& space,
            support::Rng& rng) {
  if (!space.unroll_at_most_once) return;
  // Replace extra unrolls (after the first) with random non-unroll passes.
  std::vector<opt::PassId> non_unroll;
  for (opt::PassId p : space.passes)
    if (!opt::is_unroll(p)) non_unroll.push_back(p);
  // Unroll-only space: there is nothing to substitute, and the constraint
  // is waived by SequenceSpace::valid() — keep the extra unrolls.
  if (non_unroll.empty()) return;
  bool seen = false;
  for (opt::PassId& g : genes) {
    if (!opt::is_unroll(g)) continue;
    if (!seen) {
      seen = true;
      continue;
    }
    g = non_unroll[rng.next_below(non_unroll.size())];
  }
}

}  // namespace

SearchTrace genetic_search(Evaluator& eval, const SequenceSpace& space,
                           support::Rng& rng, unsigned budget, Objective obj,
                           GaParams params) {
  ILC_CHECK(params.population >= 4);
  SearchTrace trace;
  const bool pareto = obj == Objective::Pareto;

  PrefixStates states;
  // The calling thread scores too, so the run's pool holds the other
  // workers - 1 threads.
  std::unique_ptr<support::ThreadPool> pool;
  if (params.workers > 1)
    pool = std::make_unique<support::ThreadPool>(params.workers - 1);

  // Score inds[first, first+count) concurrently, then commit the results
  // in index order — the same order the sequential GA records them.
  // Per-generation observability: one span + three registry updates per
  // scored batch, nothing per individual.
  auto evaluate_range = [&](std::vector<Individual>& inds, std::size_t first,
                            std::size_t count) {
    obs::Span span("search.ga.generation");
    support::parallel_for(pool.get(), first, first + count,
                          [&](std::size_t i) {
                            const EvalResult r =
                                eval.eval_sequence(inds[i].genes, states);
                            inds[i].cycles = r.cycles;
                            inds[i].code_size = r.code_size;
                            inds[i].metric = metric_of(r, obj);
                          });
    for (std::size_t i = first; i < first + count; ++i)
      trace.record(inds[i].genes, inds[i].cycles, inds[i].code_size, obj);
    c_ga_generations().add(1);
    c_ga_evaluations().add(count);
    if (trace.best_metric != ~0ULL)
      g_ga_last_best().set(static_cast<std::int64_t>(trace.best_metric));
    span.annotate("evaluations", std::to_string(count));
  };

  // Initial population: cluster seeds first (invalid or wrong-length
  // seeds fall back to uniform samples), the remainder uniform.
  std::vector<Individual> pop(params.population);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (i < params.seeds.size() && space.valid(params.seeds[i]))
      pop[i].genes = params.seeds[i];
    else
      pop[i].genes = space.sample(rng);
  }
  // Individuals past the budget stay unevaluated (metric ~0ULL), exactly
  // as when the sequential loop stops recording mid-population.
  evaluate_range(pop, 0, std::min<std::size_t>(params.population, budget));

  // "Is a a better survivor than b" under the active objective.
  auto better = [&](const Individual& a, const Individual& b) {
    if (pareto) {
      if (a.rank != b.rank) return a.rank < b.rank;
      if (a.crowding != b.crowding) return a.crowding > b.crowding;
      if (a.cycles != b.cycles) return a.cycles < b.cycles;
      return a.code_size < b.code_size;
    }
    return a.metric < b.metric;
  };

  auto tournament = [&]() -> const Individual& {
    const Individual* best = &pop[rng.next_below(pop.size())];
    for (unsigned i = 1; i < kTournament; ++i) {
      const Individual* cand = &pop[rng.next_below(pop.size())];
      if (better(*cand, *best)) best = cand;
    }
    return *best;
  };

  auto breed_one = [&]() -> Individual {
    Individual child;
    const Individual& a = tournament();
    const Individual& b = tournament();
    child.genes = a.genes;
    if (rng.next_bool(kCrossoverRate) && space.length >= 2) {
      const std::size_t cut = 1 + rng.next_below(space.length - 1);
      for (std::size_t i = cut; i < space.length; ++i)
        child.genes[i] = b.genes[i];
    }
    for (std::size_t i = 0; i < space.length; ++i)
      if (rng.next_bool(params.mutation_rate))
        child.genes[i] = space.passes[rng.next_below(space.passes.size())];
    repair(child.genes, space, rng);
    ILC_ASSERT(space.valid(child.genes));
    return child;
  };

  while (trace.evaluations < budget) {
    if (pareto) {
      assign_pareto_keys(pop);
      std::stable_sort(pop.begin(), pop.end(), better);
    } else {
      std::sort(pop.begin(), pop.end(),
                [](const Individual& a, const Individual& b) {
                  return a.metric < b.metric;
                });
    }
    std::vector<Individual> next(pop.begin(),
                                 pop.begin() + std::min<std::size_t>(
                                                   params.elites, pop.size()));
    // Saturating count of children bred so far, against the number of
    // elites actually carried over: when the surviving population is
    // smaller than `params.elites` the plain `next.size() - params.elites`
    // underflows, disables breeding, and the generation loop spins with
    // zero progress.
    const std::size_t elite_count = next.size();
    auto bred_so_far = [&]() -> std::size_t {
      return next.size() - elite_count;
    };
    if (params.estimator != nullptr && params.oversample > 1) {
      // Oversample children and keep the predicted-best subset, in
      // breeding order (PerfEstimator::keep_best). Prediction is RNG-free,
      // so determinism is untouched.
      const std::size_t want =
          params.population > next.size() ? params.population - next.size()
                                          : 0;
      std::vector<std::vector<opt::PassId>> cands(want * params.oversample);
      for (auto& genes : cands) genes = breed_one().genes;
      for (const std::size_t i : params.estimator->keep_best(cands, want))
        next.push_back(Individual{std::move(cands[i])});
    } else {
      // In size_t: a budget near the unsigned maximum must not wrap the
      // bound and stop breeding after one generation.
      while (next.size() < params.population &&
             trace.evaluations + bred_so_far() <
                 std::size_t{budget} + params.population) {
        next.push_back(breed_one());
      }
    }
    const std::size_t first = elite_count;
    const std::size_t evaluable = std::min<std::size_t>(
        next.size() - first, budget - trace.evaluations);
    evaluate_range(next, first, evaluable);
    // No child could be evaluated while budget remains: nothing can make
    // progress anymore, so terminate instead of spinning.
    if (evaluable == 0 && trace.evaluations < budget) break;
    // Drop any never-evaluated stragglers (budget exhausted mid-generation).
    next.erase(std::remove_if(next.begin(), next.end(),
                              [](const Individual& ind) {
                                return ind.metric == ~0ULL;
                              }),
               next.end());
    if (next.size() < 4) break;
    pop = std::move(next);
  }
  return trace;
}

}  // namespace ilc::search
