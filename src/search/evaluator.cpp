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
obs::Histogram& h_simulate_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("search.simulate_us");
  return h;
}

/// Per-thread scratch for candidate materialization: copy-assigning the
/// base module into a retained buffer reuses the vectors' capacity from
/// the previous candidate instead of re-allocating the whole module tree
/// for every evaluation.
ir::Module& scratch_module() {
  thread_local ir::Module scratch;
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

EvalResult Evaluator::measure(const ir::Module& optimized_mod) {
  const std::uint64_t fp = ir::fingerprint(optimized_mod);
  if (!cache_enabled_) return simulate(optimized_mod, fp);

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
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        c_eval_cache_hits().add(1);
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

  {
    std::lock_guard<std::mutex> lock(sh.mu);
    Entry& e = sh.map[fp];
    e.result = res;
    e.ready = true;
  }
  sh.cv.notify_all();
  return res;
}

EvalResult Evaluator::eval_sequence(const std::vector<opt::PassId>& seq) {
  ir::Module& m = scratch_module();
  m = base_;
  opt::run_sequence(m, seq);
  return measure(m);
}

EvalResult Evaluator::eval_flags(const opt::OptFlags& flags) {
  ir::Module& m = scratch_module();
  m = base_;
  opt::run_sequence(m, opt::pipeline(flags));
  return measure(m);
}

}  // namespace ilc::search
