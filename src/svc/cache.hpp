// The result cache of the tuning service: exactly two records per cache
// key (the tuned best and the -O0 baseline, both honest ExperimentRecords
// in the standard format), kept in one kbstore::Store.
//
// A default-constructed cache holds an in-memory store
// (kbstore::Store::in_memory()): tests and services without a KB path.
// open_durable() holds a store directory instead: every store() is
// WAL-appended and group-committed, and a service restarted against the
// same directory runs crash recovery and answers previously-tuned requests
// without a single simulation. Either way save() exports the records as a
// CSV knowledge base.
//
// Keys identify *code*, not names: module fingerprint + objective, with
// the machine carried in the record's machine column. Two requests whose
// modules optimize identically share an entry regardless of how the
// client labeled them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "kbstore/store.hpp"
#include "search/strategies.hpp"

namespace ilc::svc {

/// What the cache remembers about one (module, machine, objective) key.
struct CachedResult {
  std::string config;                 // best pass sequence, textual
  std::uint64_t best_metric = 0;      // objective metric of `config`
  std::uint64_t baseline_metric = 0;  // objective metric at -O0
};

class ResultCache {
 public:
  /// An empty cache on an in-memory store.
  ResultCache();

  /// Open a durable store at `path` (a directory; created if missing),
  /// running crash recovery. Returns nullopt when the path is not a store
  /// directory: a file (a CSV knowledge base converts with kb_tool
  /// import), a corrupt snapshot, or a foreign WAL.
  static std::optional<ResultCache> open_durable(const std::string& path,
                                                 kbstore::Options opts = {});

  /// The canonical cache key for a module fingerprint + objective.
  static std::string key(std::uint64_t fingerprint,
                         search::Objective objective);

  std::optional<CachedResult> lookup(const std::string& key,
                                     const std::string& machine) const;

  /// lookup() against any store holding cache records, such as the
  /// replicated store a follower service answers from.
  static std::optional<CachedResult> lookup_store(const kbstore::Store& store,
                                                  const std::string& key,
                                                  const std::string& machine);

  /// Keep the better of the stored and offered result for `key` (lower
  /// metric wins; first write always stored).
  void store(const std::string& key, const std::string& machine,
             const CachedResult& result);

  /// Export the cache as a CSV knowledge base at `path`.
  bool save(const std::string& path) const;

  /// Group-commit barrier: all stores durable on return (in memory: true).
  bool sync() const;

  std::size_t size() const;

 private:
  explicit ResultCache(std::shared_ptr<kbstore::Store> store)
      : store_(std::move(store)) {}

  std::shared_ptr<kbstore::Store> store_;
};

}  // namespace ilc::svc
