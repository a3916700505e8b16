// ilc::kbstore — a durable, concurrent, embedded storage engine for
// knowledge-base ExperimentRecords (the paper's Section III-E repository
// as a real storage system rather than a whole-file CSV rewrite). It is
// the one keyed record store of the system: the tuning service's result
// cache, replication and kb_tool all run on it. CSV is only an
// import/export format (kb_tool import / export).
//
// Two forms, one index. Store::open(dir) gives the durable form described
// below. Store::in_memory() gives the same sharded index with the same
// append/upsert/find/records semantics and nothing else: it owns no
// directory, writes no file, buffers no WAL, runs no compaction thread and
// updates no kbstore.* metric; sync() and compact() do nothing and return
// true. It backs a tuning service started without a KB path.
//
// On disk a durable store is a directory:
//
//   <dir>/snapshot.ilc   compacted baseline, written atomically (tmp+rename)
//   <dir>/wal.ilc        append-only write-ahead log of mutations
//
// both in the framed format of log_format.hpp. In memory it is a sharded
// hash index keyed by (program, machine, kind); each shard has its own
// shared_mutex, so readers proceed concurrently with each other and with
// writers touching other shards. Writers serialize on the WAL: every
// mutation is encoded, buffered for group commit, and applied to the
// index before the call returns.
//
// Durability: a record is *acknowledged* once its WAL frame reaches the
// OS (flush). The flush policy controls when that happens — every append,
// batched (group commit: one write per `batch_appends` mutations, plus
// explicit sync()), or manual. Readers may observe un-flushed writes;
// only flushed writes are guaranteed to survive a crash.
//
// Recovery: open() replays the snapshot, then every intact WAL frame of a
// newer generation, and truncates the WAL at the first torn or
// checksum-failing frame — a crash mid-append costs at most the
// un-flushed tail, never the file. Each file is replayed in one pass of
// kLogChunk reads that applies each record as it is decoded and chains
// the replication CRC over the same bytes; a WAL the snapshot already
// covers is discarded unread.
//
// Compaction: once superseded records outnumber the configured dead/live
// ratio, a background thread (or an explicit compact() call) writes the
// live set as a new snapshot and truncates the WAL to a fresh generation.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kb/knowledge_base.hpp"
#include "kbstore/record_codec.hpp"

namespace ilc::kbstore {

/// Recovery reads a log this many bytes at a time: under glibc's default
/// mmap threshold, as a mapped 1 MiB buffer slowed warm serving by ~7%.
inline constexpr std::size_t kLogChunk = std::size_t{1} << 16;

struct Options {
  enum class Flush {
    EveryAppend,  ///< flush the WAL on every mutation (most durable)
    Batched,      ///< group commit: flush every `batch_appends` mutations
    Manual,       ///< flush only on sync()/compact()/close
  };
  Flush flush = Flush::Batched;
  std::size_t batch_appends = 32;
  /// fsync(2) after each flush. Off by default: flushed data survives a
  /// process crash either way; fsync additionally covers power loss.
  bool fsync_on_flush = false;

  /// Compact when dead records exceed both bounds below.
  std::size_t compact_min_dead = 1024;
  double compact_dead_ratio = 1.0;  // dead > ratio * live
  /// Run compaction on a background thread when the trigger fires.
  /// When false, compaction only happens via explicit compact() calls.
  bool background_compaction = true;
  /// Open as a replication follower: the regular write API (append /
  /// upsert / import_records) throws, compaction is disabled
  /// (followers adopt the leader's compactions as snapshot installs),
  /// and mutations arrive only through follower_append /
  /// follower_install_snapshot — which mirror a leader's files
  /// byte-for-byte. A follower can later be flipped into a leader with
  /// promote_to_leader() (cluster failover).
  bool follower = false;
};

/// A durable WAL position: the generation, how many frames of it have
/// reached the file, and the CRC32 chained over their raw bytes. Two
/// stores at the same position with the same chain hold byte-identical
/// WALs — replication resumes from here and detects divergence with it.
struct WalPosition {
  std::uint64_t generation = 0;
  std::uint64_t seq = 0;        ///< durable frames in this generation
  std::uint32_t chain_crc = 0;  ///< crc32 chained over their raw bytes
};

/// What open() found on disk.
struct RecoveryInfo {
  std::size_t snapshot_records = 0;
  std::size_t wal_records = 0;   ///< intact WAL frames replayed
  bool torn_tail = false;        ///< WAL ended in a torn/corrupt frame
  std::uint64_t torn_bytes = 0;  ///< bytes discarded from the WAL tail
  /// WAL was stale (generation <= snapshot's): a crash hit the window
  /// between snapshot publish and WAL truncation; it was discarded whole.
  bool stale_wal = false;
};

struct StoreStats {
  std::size_t live = 0;  ///< records in the index
  std::size_t dead = 0;  ///< superseded log records since compaction
  std::uint64_t appends = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t wal_bytes = 0;  ///< flushed WAL size on disk
};

class Store {
 public:
  /// Open (creating if needed) the store at directory `dir`, running
  /// crash recovery. Returns nullptr when the directory cannot be
  /// created, a snapshot is corrupt, or the WAL has a foreign header.
  static std::unique_ptr<Store> open(const std::string& dir,
                                     Options opts = {},
                                     RecoveryInfo* info = nullptr);
  /// An in-memory store: the index alone, with no directory behind it
  /// (see the header comment). Never a follower.
  static std::unique_ptr<Store> in_memory();
  ~Store();  // stops compaction, flushes the WAL

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Add one more record under its key; duplicates accumulate in
  /// insertion order (the general KB shape: many search points per key).
  void append(kb::ExperimentRecord rec);

  /// Replace the first record under (program, machine, kind), or append
  /// when the key is new. Returns true when a record was replaced.
  bool upsert(kb::ExperimentRecord rec);

  /// First record under the key (KnowledgeBase::find semantics).
  std::optional<kb::ExperimentRecord> find(const std::string& program,
                                           const std::string& machine,
                                           const std::string& kind) const;

  /// Every record in insertion order. A copy; concurrent writers may land
  /// between shard visits, so use for export/tooling, not invariants.
  std::vector<kb::ExperimentRecord> records() const;

  std::size_t size() const;

  /// Group-commit barrier: every prior append is durable on return.
  /// In memory: nothing to flush, true.
  bool sync();

  /// Write the live set as a new snapshot and truncate the WAL.
  /// In memory: no-op, true.
  bool compact();

  StoreStats stats() const;

  /// Durable WAL position: generation, flushed frame count, chain CRC.
  /// Un-flushed group-commit bytes are not included — the position is
  /// what a crash (and therefore a replica) is guaranteed to see.
  WalPosition wal_position() const;
  std::uint64_t wal_generation() const;
  std::uint64_t durable_seq() const;

  // --- replication follower API (Options::follower only) ----------------
  /// Append a verified batch of raw WAL frames shipped from a leader:
  /// every frame must be complete, CRC-clean, and decodable, or nothing
  /// is written. Bytes land verbatim (the follower WAL stays
  /// byte-identical to the leader's) and are flushed before return, so
  /// the follower's reported position never runs ahead of its disk.
  /// Returns the frames appended, each decoded once; 0 when the batch is
  /// empty, torn or corrupt, or the write fails.
  std::size_t follower_append(std::string_view frames);

  /// Adopt a leader's compacted state: install `snapshot` (a full
  /// snapshot file image, verbatim; empty = leader has none) and restart
  /// the WAL at `wal_generation`, resetting the index to the snapshot's
  /// contents. Rejects a corrupt snapshot image without touching disk.
  bool follower_install_snapshot(std::string_view snapshot,
                                 std::uint64_t wal_generation);

  /// Whether the store is currently in follower mode. Starts as
  /// Options::follower; promote_to_leader() flips it off.
  bool is_follower() const {
    return follower_.load(std::memory_order_acquire);
  }

  /// Cluster failover: flip a follower into a leader. Starts a fresh WAL
  /// generation via an immediate compaction — the generation bump is the
  /// fence that makes the old leader's stream unacceptable here (and this
  /// store's stream reject any follower still loyal to the old leader's
  /// history, via the existing split-brain checks). After a true return
  /// the full write API is live and background compaction (when
  /// configured) is running. False when the store is not a follower or
  /// the fencing compaction could not be written.
  bool promote_to_leader();

  /// What open() found on disk for this store (same data as the open()
  /// out-parameter, kept for tooling that opens the store elsewhere).
  RecoveryInfo recovery() const { return recovery_; }

  // --- CSV import/export (kb_tool) ---------------------------------------
  /// Append every record of a parsed CSV KB (order preserved) and sync.
  bool import_records(const kb::KnowledgeBase& base);
  /// Materialize the store as a KnowledgeBase (for CSV export / queries).
  kb::KnowledgeBase export_kb() const;

 private:
  struct Entry {
    kb::ExperimentRecord rec;
    std::uint64_t seq;  // global insertion order, survives compaction
  };
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, std::vector<Entry>> map;
  };
  static constexpr std::size_t kShards = 16;

  Store(std::string dir, Options opts);

  static std::string key_of(const std::string& program,
                            const std::string& machine,
                            const std::string& kind);
  Shard& shard_of(const std::string& key);
  const Shard& shard_of(const std::string& key) const;

  /// False for the in-memory form, which must never build the paths below.
  bool has_dir() const { return !dir_.empty(); }
  std::string wal_path() const { return dir_ + "/wal.ilc"; }
  std::string snapshot_path() const { return dir_ + "/snapshot.ilc"; }

  bool recover(RecoveryInfo& info);
  /// Apply a log record to the index. Takes the shard lock; the caller
  /// must hold wal_mu_ (or be the single-threaded recovery path).
  bool apply(LogRecord&& lr);
  bool log_and_apply(LogRecord lr);

  bool flush_locked();
  /// Replace the WAL with an empty one (its header only) at `generation`.
  bool start_wal_locked(std::uint64_t generation);
  bool compact_locked();
  void clear_index_locked();
  void publish_position_locked();
  void maybe_request_compaction_locked();
  std::vector<Entry> collect_entries() const;  // sorted by seq
  void background_loop();

  const std::string dir_;  // empty for the in-memory form
  const Options opts_;
  /// Live follower/leader mode. Seeded from opts_.follower; flipped (at
  /// most once) by promote_to_leader(). Atomic because the write API
  /// checks it before taking wal_mu_.
  std::atomic<bool> follower_;
  RecoveryInfo recovery_;  // written once by open(), read-only after

  std::array<Shard, kShards> shards_;

  /// Serializes writers and guards all fields below. Lock order:
  /// wal_mu_ -> shard.mu (readers take only shard.mu).
  mutable std::mutex wal_mu_;
  std::FILE* wal_ = nullptr;
  std::uint64_t wal_generation_ = 1;
  std::uint64_t wal_seq_ = 0;      // durable frames this generation
  std::uint32_t wal_chain_ = 0;    // crc32 chained over their raw bytes
  std::string pending_;  // encoded frames awaiting group commit
  std::size_t pending_records_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t wal_bytes_ = 0;

  std::thread bg_;
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_stop_ = false;
  bool bg_compact_ = false;
};

}  // namespace ilc::kbstore
