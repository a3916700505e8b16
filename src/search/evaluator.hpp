// The performance oracle used by every search strategy: apply an
// optimization configuration to a pristine copy of the program, simulate
// it, and memoize the result by the fingerprint of the optimized module —
// distinct sequences frequently converge to identical code, and the cache
// collapses them (design decision #4 in DESIGN.md).
//
// In front of that memo sits an index keyed by the exact pass sequence.
// Passes are pure functions of the module and the base module is fixed per
// evaluator, so a sequence always yields the same fingerprint: a repeat
// (GA elites and re-bred children, svc requests sharing an evaluator)
// returns the memoized result without the module copy, the pass pipeline
// or the fingerprint. The index maps a sequence to a *ready* fingerprint
// entry and is filled only after that entry's result landed, so a
// sequence hit is always a case the fingerprint memo would also have hit:
// it never changes which candidates simulate, and a candidate whose
// simulation throws leaves no entry at either level. eval_flags runs
// through the same index via opt::pipeline.
//
// On an index miss, the two-argument eval_sequence takes a run's
// PrefixStates (search/prefix_states.hpp): the candidate starts from the
// module after the longest stored proper prefix of its sequence instead of
// the base module, runs only the remaining passes, and offers the states
// after them to the store. The genetic search hands its run's store here;
// the other strategies call the one-argument form, which always starts
// from the base. Either way the module, and so everything after it, is
// the same. Every pass run executed is counted on `search.pass_runs` and
// every one a stored prefix made unnecessary on `search.pass_runs_skipped`.
//
// Built for concurrent callers (the parallel GA and the tuning service):
// both levels are striped across sharded mutexes so unrelated keys never
// contend, and the fingerprint memo is single-flight — when two workers
// miss on the same fingerprint simultaneously, one simulates and the
// others block on the shard's condition variable until the result lands,
// so every unique fingerprint is simulated exactly once. Candidate
// materialization reuses a per-thread scratch module (copy-assignment into
// retained capacity) instead of constructing a fresh deep copy per
// candidate.
//
// Simulation reuses a per-thread simulator the same way. No pass reads or
// writes initializers, and only ptrcompress changes the layout (through
// the pointer width), so a candidate's initial memory image is the base's
// image at the candidate's pointer width. The evaluator builds that image
// once per pointer width and shares it read-only; each thread keeps one
// sim::Simulator, keyed by evaluator id and pointer width, and restarts it
// for every candidate under the same key, which copies back only the
// bytes the previous run stored. The simulator decodes the candidate on
// its run; the memo simulates each fingerprint once, so an evaluator
// decodes each distinct program once. A thread keeps one such simulator
// at most, so a service that caches many evaluators does not keep an
// image per evaluator and thread. The id comes from a counter, not the
// evaluator's address, which a later evaluator may reuse; it also fixes
// the machine, which an evaluator never changes.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "ir/module.hpp"
#include "opt/pipelines.hpp"
#include "sim/interpreter.hpp"

namespace ilc::search {

class PrefixStates;  // search/prefix_states.hpp

struct EvalResult {
  std::uint64_t cycles = 0;
  std::uint64_t code_size = 0;
  std::uint64_t instructions = 0;
  sim::Counters counters;
};

class Evaluator {
 public:
  Evaluator(const ir::Module& base, sim::MachineConfig cfg);

  /// Apply a pass sequence and measure. Thread-safe.
  EvalResult eval_sequence(const std::vector<opt::PassId>& seq);
  /// The same, but a sequence-index miss starts from the longest proper
  /// prefix of `seq` stored in `states` and offers the states after the
  /// passes it runs back to it. Thread-safe; `states` may be shared by
  /// concurrent callers.
  EvalResult eval_sequence(const std::vector<opt::PassId>& seq,
                           PrefixStates& states);
  /// Apply a flag-vector pipeline and measure. Thread-safe.
  EvalResult eval_flags(const opt::OptFlags& flags);

  /// Optimized module for a configuration (no caching; for inspection).
  ir::Module optimized(const std::vector<opt::PassId>& seq) const;

  /// Number of real simulations performed / cache hits observed. Atomic,
  /// so harnesses may poll them while workers are still evaluating.
  /// simulations() + cache_hits() is the number of eval_* calls. A thread
  /// that joins an in-flight simulation of the same fingerprint counts as
  /// a cache hit (it did not simulate).
  std::size_t simulations() const {
    return simulations_.load(std::memory_order_relaxed);
  }
  std::size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  /// The cache hits answered by the sequence index, which skipped the
  /// module copy, the pass pipeline and the fingerprint.
  std::size_t sequence_hits() const {
    return sequence_hits_.load(std::memory_order_relaxed);
  }
  /// Pass runs executed to build candidates (sequence-index misses), and
  /// pass runs skipped because a stored prefix state already held their
  /// result. With one caller both are deterministic for a fixed sequence
  /// of calls.
  std::size_t pass_runs() const {
    return pass_runs_.load(std::memory_order_relaxed);
  }
  std::size_t pass_runs_skipped() const {
    return pass_runs_skipped_.load(std::memory_order_relaxed);
  }
  /// Turns both memo levels on or off; off simulates every call, each
  /// from the base module (a store passed to eval_sequence goes unused).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  const ir::Module& base() const { return base_; }
  const sim::MachineConfig& machine() const { return cfg_; }

 private:
  EvalResult evaluate(const std::vector<opt::PassId>& seq,
                      PrefixStates* states);
  /// The candidate module in this thread's scratch: `seq` applied to the
  /// base, starting from a stored prefix state when `states` has one.
  /// `key` is the sequence key.
  const ir::Module& materialize(const std::vector<opt::PassId>& seq,
                                std::string_view key, PrefixStates* states);
  /// The fingerprint memo: the ready entry's result, simulating on a miss.
  const EvalResult& memoized(const ir::Module& optimized_mod,
                             std::uint64_t fp);
  EvalResult simulate(const ir::Module& optimized_mod);
  /// This thread's simulator, restarted (or built) on `mod`.
  sim::Simulator& thread_simulator(const ir::Module& mod);
  void count_hit();

  /// One stripe of both memo levels. A fingerprint entry is inserted
  /// not-ready by the thread that takes ownership of the simulation (the
  /// leader); followers wait on the shard cv. Erased (and broadcast) if
  /// the leader throws; never erased once ready.
  struct Entry {
    bool ready = false;
    EvalResult result;
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Entry> map;
    /// Sequence index, one byte per PassId -> the result of a ready entry
    /// in some shard's `map` (map nodes never move, so the pointer lives
    /// as long as the evaluator).
    std::unordered_map<std::string, const EvalResult*> seqs;
  };
  static constexpr std::size_t kShards = 16;
  Shard& shard_of(std::uint64_t hash) { return shards_[hash % kShards]; }

  ir::Module base_;
  sim::MachineConfig cfg_;
  const std::uint64_t id_;  // keys the per-thread simulators
  /// The initial image at pointer width 4 and 8, built on first use.
  std::mutex images_mu_;
  std::array<std::shared_ptr<const ir::MemoryImage>, 2> images_;
  bool cache_enabled_ = true;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> simulations_{0};
  std::atomic<std::size_t> cache_hits_{0};
  std::atomic<std::size_t> sequence_hits_{0};
  std::atomic<std::size_t> pass_runs_{0};
  std::atomic<std::size_t> pass_runs_skipped_{0};
};

}  // namespace ilc::search
