#include "search/evaluator.hpp"

#include <memory>
#include <tuple>

#include "ir/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "search/prefix_states.hpp"

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
obs::Counter& c_pass_runs() {
  static obs::Counter c = obs::Registry::instance().counter("search.pass_runs");
  return c;
}
obs::Counter& c_pass_runs_skipped() {
  static obs::Counter c =
      obs::Registry::instance().counter("search.pass_runs_skipped");
  return c;
}
obs::Histogram& h_simulate_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("search.simulate_us");
  return h;
}

std::uint64_t next_evaluator_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Evaluator::Evaluator(const ir::Module& base, sim::MachineConfig cfg)
    : base_(base), cfg_(std::move(cfg)), id_(next_evaluator_id()) {}

ir::Module Evaluator::optimized(const std::vector<opt::PassId>& seq) const {
  ir::Module m = base_;
  opt::run_sequence(m, seq);
  return m;
}

EvalResult Evaluator::simulate(const ir::Module& optimized_mod) {
  // The simulator decodes the module on this run: with the memo on, once
  // per fingerprint.
  obs::Span span("search.simulate");
  obs::ScopedTimerUs timer(h_simulate_us());
  const sim::RunResult rr = thread_simulator(optimized_mod).run();
  EvalResult res;
  res.cycles = rr.cycles;
  res.code_size = optimized_mod.code_size();
  res.instructions = rr.instructions;
  res.counters = rr.counters;
  simulations_.fetch_add(1, std::memory_order_relaxed);
  c_simulations().add(1);
  return res;
}

sim::Simulator& Evaluator::thread_simulator(const ir::Module& mod) {
  struct Slot {
    std::uint64_t evaluator = 0;  // ids start at 1
    unsigned ptr_bytes = 0;
    std::unique_ptr<sim::Simulator> sim;
  };
  thread_local Slot slot;
  if (slot.sim && slot.evaluator == id_ && slot.ptr_bytes == mod.ptr_bytes()) {
    slot.sim->restart(mod);
    return *slot.sim;
  }
  std::shared_ptr<const ir::MemoryImage> initial;
  {
    std::lock_guard<std::mutex> lock(images_mu_);
    std::shared_ptr<const ir::MemoryImage>& img =
        images_[mod.ptr_bytes() == 4 ? 0 : 1];
    if (img == nullptr) img = sim::Simulator::initial_image(mod);
    initial = img;
  }
  slot.sim.reset();  // unmap the old image before mapping the next
  slot.sim = std::make_unique<sim::Simulator>(mod, cfg_, std::move(initial));
  slot.evaluator = id_;
  slot.ptr_bytes = mod.ptr_bytes();
  return *slot.sim;
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
    res = simulate(optimized_mod);
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

const ir::Module& Evaluator::materialize(const std::vector<opt::PassId>& seq,
                                         std::string_view key,
                                         PrefixStates* states) {
  // Per-thread scratch: copy-assigning into a retained buffer reuses the
  // vectors' capacity from the previous candidate instead of re-allocating
  // the whole module tree for every evaluation.
  thread_local ir::Module scratch;
  std::size_t done = 0;
  // Keeps a stored state alive while it is copied, even if another worker
  // evicts it meanwhile.
  std::shared_ptr<const ir::Module> state;
  if (states != nullptr) std::tie(done, state) = states->longest_prefix(key);
  scratch = state != nullptr ? *state : base_;
  for (std::size_t i = done; i < seq.size(); ++i) {
    opt::run_pass(seq[i], scratch);
    if (states != nullptr && i + 1 < seq.size())
      states->offer(key.substr(0, i + 1), scratch);
  }
  pass_runs_.fetch_add(seq.size() - done, std::memory_order_relaxed);
  pass_runs_skipped_.fetch_add(done, std::memory_order_relaxed);
  c_pass_runs().add(seq.size() - done);
  c_pass_runs_skipped().add(done);
  return scratch;
}

EvalResult Evaluator::eval_sequence(const std::vector<opt::PassId>& seq) {
  return evaluate(seq, nullptr);
}

EvalResult Evaluator::eval_sequence(const std::vector<opt::PassId>& seq,
                                    PrefixStates& states) {
  return evaluate(seq, &states);
}

EvalResult Evaluator::evaluate(const std::vector<opt::PassId>& seq,
                               PrefixStates* states) {
  // The exact sequence is the key (a hash alone could serve another
  // sequence's result); up to 15 passes fit the string's inline buffer.
  std::string key(seq.size(), '\0');
  for (std::size_t i = 0; i < seq.size(); ++i)
    key[i] = static_cast<char>(seq[i]);

  if (!cache_enabled_) return simulate(materialize(seq, key, nullptr));

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

  const ir::Module& m = materialize(seq, key, states);
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
