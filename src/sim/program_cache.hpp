// Process-wide cache of decoded programs, keyed by ir::fingerprint.
//
// Decoding is cheap but not free (linear in code size, one allocation
// burst per function). The search Evaluator's memo already simulates each
// fingerprint once, so one evaluator asks this cache for a program about
// once. What the cache serves is repeats across evaluators: the same
// optimized code tuned for another machine (svc keeps one evaluator per
// program and machine), and svc re-tunes of known code. On the ga_adpcm
// benchmark mix, which tunes one program for two machines, about a
// quarter of lookups hit.
//
// Entries are immutable and handed out as shared_ptr<const>, so eviction
// never invalidates a running Simulator. A bounded LRU keeps a long-lived
// tuning service from accumulating one entry per candidate ever seen. The
// default capacity is 256 programs: enough for the cross-machine repeats
// of recent searches. At 1024, the live decodings sat under a GA
// service's prefix states (search/prefix_states.hpp): ga_adpcm read a
// peak RSS of 18.3-18.7 MB, against 14.1-14.3 MB at 256.
//
// Lookups are single-flight, mirroring the evaluator memo cache: when
// several threads miss on the same fingerprint simultaneously (two
// evaluators of one program reaching the same code at once), the first
// inserts a pending placeholder and decodes; the rest block on the
// condition variable and pick up the published program. Every unique
// fingerprint is decoded exactly once while it stays cached. Pending
// placeholders are not on the LRU list, so eviction can never drop an
// in-flight decode.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sim/decoded_program.hpp"

namespace ilc::sim {

class ProgramCache {
 public:
  /// The process-wide instance used by Simulator construction.
  static ProgramCache& instance();

  explicit ProgramCache(std::size_t capacity = 256) : capacity_(capacity) {}

  /// Decoded program for `mod`, decoding on miss. Fingerprints the module;
  /// use the two-argument form when the caller already has the print.
  /// Thread-safe; concurrent misses on one fingerprint decode once.
  std::shared_ptr<const DecodedProgram> get(const ir::Module& mod);
  std::shared_ptr<const DecodedProgram> get(const ir::Module& mod,
                                            std::uint64_t fingerprint);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  void clear();

 private:
  /// program == nullptr marks a pending entry: a leader thread is decoding
  /// this fingerprint and will publish (or erase, on failure) under mu_.
  /// lru_pos is valid only for published entries.
  struct Entry {
    std::shared_ptr<const DecodedProgram> program;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Entry> map_;
  std::list<std::uint64_t> lru_;  // front = most recently used; published only
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ilc::sim
