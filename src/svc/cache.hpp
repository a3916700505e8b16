// The persistent result cache of the tuning service: exactly two records
// per cache key (the tuned best and the -O0 baseline, both honest
// ExperimentRecords in the standard format), so a service restarted
// against the same store answers previously-tuned requests without a
// single simulation.
//
// Two persistence modes:
//   * durable (the default for a service with a KB path) — backed by a
//     kbstore::Store: every store() is WAL-appended and group-committed
//     incrementally; restart runs crash recovery. Legacy CSV KB files are
//     migrated in place on first open and remain available via save()
//     export.
//   * in-memory — a plain kb::KnowledgeBase, for tests and ephemeral
//     services; save() still writes the legacy CSV format.
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

#include "kb/knowledge_base.hpp"
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
  ResultCache() = default;

  /// Wrap an existing knowledge base (e.g. loaded from disk) in-memory.
  /// Non-service records are preserved and round-trip through save().
  explicit ResultCache(kb::KnowledgeBase base) : base_(std::move(base)) {}

  /// Load `path` as a legacy CSV KB into an in-memory cache, tolerating a
  /// missing file (fresh cache). Returns nullopt only when the file
  /// exists but is not a valid KB.
  static std::optional<ResultCache> open(const std::string& path);

  /// Open a durable store at `path` (a directory; created if missing),
  /// running crash recovery. A legacy CSV *file* at `path` is migrated in
  /// place: parsed, imported into a new store directory of the same name.
  /// Returns nullopt when the path holds neither a store nor a valid KB.
  static std::optional<ResultCache> open_durable(
      const std::string& path, kbstore::Options opts = {},
      kbstore::RecoveryInfo* info = nullptr);

  /// The canonical cache key for a module fingerprint + objective.
  static std::string key(std::uint64_t fingerprint,
                         search::Objective objective);

  std::optional<CachedResult> lookup(const std::string& key,
                                     const std::string& machine) const;

  /// The durable-mode lookup against an explicit store — the same
  /// svc-best/svc-base record pairing lookup() uses, exposed so a
  /// replication follower can serve warm hits straight from its
  /// replicated kbstore without constructing a ResultCache around it.
  static std::optional<CachedResult> lookup_store(const kbstore::Store& store,
                                                  const std::string& key,
                                                  const std::string& machine);

  /// Keep the better of the stored and offered result for `key` (lower
  /// metric wins; first write always stored).
  void store(const std::string& key, const std::string& machine,
             const CachedResult& result);

  /// Export the cache as a legacy CSV knowledge base at `path`.
  bool save(const std::string& path) const;

  /// Durable mode: group-commit barrier (all stores durable on return).
  /// In-memory mode: no-op, true.
  bool sync() const;

  std::size_t size() const;

 private:
  kb::KnowledgeBase base_;                  // in-memory mode
  std::shared_ptr<kbstore::Store> store_;   // durable mode when non-null
};

}  // namespace ilc::svc
