// Intermediate modules of one search run, keyed by exact pass prefix.
//
// A GA child keeps a parent's head (single-point crossover) and most of
// its genes (per-gene mutation), so a candidate that misses the
// evaluator's sequence index mostly re-runs passes that an earlier
// candidate of the same run already ran. PrefixStates holds the module
// after such a prefix: Evaluator::eval_sequence(seq, states) copies the
// candidate from the longest stored proper prefix of `seq` instead of the
// base module, runs only the remaining passes, and offers the states after
// them back. Passes are pure functions of the module, so the copy is the
// module those passes produce from the base: fingerprints, simulations and
// traces are the same with or without a store, at any worker count.
//
// Admission: a state is stored on its prefix's second sighting. Most
// prefixes of a run occur once (fresh samples, mutated heads), and storing
// each would cost a module copy and push a reused state out. First
// sightings land in a fixed-size direct-mapped table of prefix hashes; a
// prefix whose hash is already there is admitted. A collision only forgets
// a sighting, so a first sighting is never admitted.
//
// Bound: the stored modules' approximate heap bytes stay under one cap,
// evicting the least recently used state. adpcm states take 15-22 KB;
// mcf_lite's and phased_mix's 105-175 KB, because a state carries the
// globals' initializers. States are shared_ptr<const>, so eviction never
// pulls a module out from under a worker that is copying it.
//
// Scope: one run. genetic_search makes one per call, shares it among the
// run's workers behind the store's own mutex, and frees it on return. It
// is not kept on the Evaluator: the tuning service keeps evaluators for
// the life of the process and lets concurrent GA requests for one program
// and machine share one, so a store there would hold its cap per cached
// evaluator and mix requests under one cap. Run-scoped, the memory is
// bounded by the runs in flight. The bytes held by every live store are
// on the `search.prefix_states.bytes` gauge.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "ir/module.hpp"

namespace ilc::search {

class PrefixStates {
 public:
  /// About 100 adpcm states, or 12-20 mcf_lite states.
  static constexpr std::size_t kCapBytes = std::size_t{2} << 20;

  PrefixStates() = default;
  ~PrefixStates();
  PrefixStates(const PrefixStates&) = delete;
  PrefixStates& operator=(const PrefixStates&) = delete;

  /// The longest stored proper prefix of `seq` (one byte per PassId, the
  /// evaluator's sequence key) and its state; {0, nullptr} when none is
  /// stored. Marks the state most recently used. Thread-safe.
  std::pair<std::size_t, std::shared_ptr<const ir::Module>> longest_prefix(
      std::string_view seq);

  /// Offers the module after the passes of `prefix`. Stores a copy on the
  /// prefix's second sighting, evicting least recently used states to stay
  /// under the cap; otherwise only records the sighting. Thread-safe; the
  /// copy is taken outside the lock.
  void offer(std::string_view prefix, const ir::Module& state);

  std::size_t bytes() const;
  std::size_t size() const;

 private:
  struct Node {
    std::string key;
    std::shared_ptr<const ir::Module> state;
    std::size_t bytes = 0;
  };
  /// Direct-mapped first-sighting table: slot = hash % kSightings holds
  /// the hash of the last prefix offered there (0 = empty).
  static constexpr std::size_t kSightings = 4096;

  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recently used
  /// Keys view the list nodes' strings, which never move.
  std::unordered_map<std::string_view, std::list<Node>::iterator> map_;
  std::size_t bytes_ = 0;
  std::array<std::uint64_t, kSightings> sightings_{};
};

}  // namespace ilc::search
