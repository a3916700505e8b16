#include "search/evaluator.hpp"

#include "ir/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "sim/program_cache.hpp"

namespace ilc::search {

namespace {

obs::Counter& c_simulations() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.simulations");
  return c;
}
obs::Counter& c_eval_cache_hits() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.eval_cache.hits");
  return c;
}
obs::Counter& c_seq_memo_hits() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.seq_memo.hits");
  return c;
}
obs::Histogram& h_simulate_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("search.simulate_us");
  return h;
}

/// Candidate materialization into per-thread scratch: copy-assigning the
/// base module into a retained buffer reuses the vectors' capacity from
/// the previous candidate instead of re-allocating the whole module tree
/// for every evaluation.
const ir::Module& materialize(const ir::Module& base,
                              const std::vector<opt::PassId>& seq) {
  thread_local ir::Module scratch;
  scratch = base;
  opt::run_sequence(scratch, seq);
  return scratch;
}

}  // namespace

Evaluator::Evaluator(const ir::Module& base, sim::MachineConfig cfg)
    : base_(base), cfg_(std::move(cfg)) {}

ir::Module Evaluator::optimized(const std::vector<opt::PassId>& seq) const {
  ir::Module m = base_;
  opt::run_sequence(m, seq);
  return m;
}

EvalResult Evaluator::simulate(const ir::Module& optimized_mod,
                               std::uint64_t fp) {
  // Decoded programs are shared process-wide: repeat evaluations of the
  // same optimized code (GA elites, svc warm paths) skip re-decoding. The
  // known fingerprint is passed through to avoid a second hash of the
  // module.
  obs::Span span("search.simulate");
  obs::ScopedTimerUs timer(h_simulate_us());
  sim::Simulator sim(optimized_mod, cfg_,
                     sim::ProgramCache::instance().get(optimized_mod, fp));
  const sim::RunResult rr = sim.run();
  EvalResult res;
  res.cycles = rr.cycles;
  res.code_size = optimized_mod.code_size();
  res.instructions = rr.instructions;
  res.counters = rr.counters;
  simulations_.fetch_add(1, std::memory_order_relaxed);
  c_simulations().add(1);
  return res;
}

void Evaluator::count_hit() {
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  c_eval_cache_hits().add(1);
}

const EvalResult& Evaluator::memoized(const ir::Module& optimized_mod,
                                      std::uint64_t fp) {
  Shard& sh = shard_of(fp);
  {
    std::unique_lock<std::mutex> lock(sh.mu);
    for (;;) {
      auto it = sh.map.find(fp);
      if (it == sh.map.end()) {
        // Leader: claim the fingerprint, then simulate outside the lock.
        sh.map.emplace(fp, Entry{});
        break;
      }
      if (it->second.ready) {
        count_hit();
        return it->second.result;
      }
      // Follower: a leader is simulating this fingerprint right now.
      sh.cv.wait(lock);
    }
  }

  EvalResult res;
  try {
    res = simulate(optimized_mod, fp);
  } catch (...) {
    // Release the claim so a waiting follower can take over (and observe
    // the same trap by re-running), then propagate.
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.map.erase(fp);
    sh.cv.notify_all();
    throw;
  }

  std::lock_guard<std::mutex> lock(sh.mu);
  Entry& e = sh.map[fp];
  e.result = res;
  e.ready = true;
  sh.cv.notify_all();
  return e.result;
}

EvalResult Evaluator::eval_sequence(const std::vector<opt::PassId>& seq) {
  if (!cache_enabled_) {
    const ir::Module& m = materialize(base_, seq);
    return simulate(m, ir::fingerprint(m));
  }

  // The exact sequence is the key (a hash alone could serve another
  // sequence's result); up to 15 passes fit the string's inline buffer.
  std::string key(seq.size(), '\0');
  for (std::size_t i = 0; i < seq.size(); ++i)
    key[i] = static_cast<char>(seq[i]);
  Shard& ks = shard_of(std::hash<std::string>{}(key));
  {
    std::lock_guard<std::mutex> lock(ks.mu);
    const auto it = ks.seqs.find(key);
    if (it != ks.seqs.end()) {
      count_hit();
      sequence_hits_.fetch_add(1, std::memory_order_relaxed);
      c_seq_memo_hits().add(1);
      return *it->second;
    }
  }

  const ir::Module& m = materialize(base_, seq);
  const EvalResult& res = memoized(m, ir::fingerprint(m));
  // Indexed only now that the result is ready: a throwing simulation
  // propagated above and left no entry.
  std::lock_guard<std::mutex> lock(ks.mu);
  ks.seqs.emplace(std::move(key), &res);
  return res;
}

EvalResult Evaluator::eval_flags(const opt::OptFlags& flags) {
  return eval_sequence(opt::pipeline(flags));
}

}  // namespace ilc::search
