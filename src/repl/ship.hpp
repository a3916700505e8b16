// repl::ShipSource — the leader side of WAL shipping: tails a live
// kbstore directory *through the filesystem* (never through the Store's
// locks), slicing newly durable WAL frames into wire messages for one
// follower. Reading flushed bytes only means a ShipSource observes
// exactly the prefix a crash would leave behind, so a follower can never
// get ahead of what the leader's own recovery would keep; the torn tail
// of an in-progress write simply isn't shipped until it completes.
//
// Session shape (one ShipSource per follower connection):
//
//   handshake   the follower's Hello names its durable position
//               (generation, frame count, chain CRC). Equal generation
//               with a matching chain resumes frame-granular; an older
//               generation bootstraps from the snapshot; a position the
//               leader's history cannot extend — follower ahead, or chain
//               mismatch at the claimed prefix — is *rejected*
//               (split-brain: this follower replicated a different
//               leader, or the leader lost acknowledged history).
//   poll        emit whatever became durable since the last call: Frames
//               after leader flushes, a fresh Snapshot + restart after a
//               leader compaction (the WAL generation changed under us),
//               and always a trailing Heartbeat so an idle follower still
//               measures lag.
//
// The ShipSource carries no state a restart cannot rebuild from the
// follower's next Hello — leader restarts are handled by reconnecting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kbstore/log_format.hpp"
#include "kbstore/store.hpp"
#include "repl/wire.hpp"

namespace ilc::repl {

class ShipSource {
 public:
  explicit ShipSource(std::string dir) : dir_(std::move(dir)) {}

  /// Answer a follower's Hello. On acceptance the session is positioned
  /// and true is returned; the first poll() ships the catch-up data. On
  /// split-brain (or an unreadable leader store) a Reject message is
  /// appended to `out`, `why` says what happened, and false is returned.
  bool handshake(const Msg& hello, std::string& out, std::string* why);

  /// Append newly durable data as wire messages: Snapshot when the
  /// generation moved, Frames for new WAL entries, then one Heartbeat.
  /// False on a leader-store read error (caller should drop the session).
  bool poll(std::string& out);

  /// The leader's current durable position, read from disk.
  std::optional<kbstore::WalPosition> position() const;

 private:
  struct WalImage {
    std::string bytes;
    std::vector<std::uint64_t> ends;  // end offset of each intact frame
    std::uint64_t generation = 0;
    bool ok = false;  // readable with a sane header
    /// Offset just past the first `frames` frames.
    std::uint64_t end_of(std::uint64_t frames) const {
      return frames == 0 ? kbstore::kHeaderSize : ends[frames - 1];
    }
    /// The chain CRC a WalPosition of `frames` frames carries.
    std::uint32_t chain_of(std::uint64_t frames) const;
  };
  WalImage read_wal() const;

  std::string dir_;
  bool positioned_ = false;   // handshake accepted
  std::uint64_t gen_ = 0;     // generation the follower is on
  std::uint64_t next_seq_ = 0;  // next frame index to ship
};

/// Byte-level divergence check between two store directories (the
/// zero-divergence gate of the replication tests and bench): nullopt when
/// snapshot.ilc and wal.ilc are both identical, else a description of the
/// first difference. Compare only at rest (leader synced, follower
/// caught up) — un-flushed leader bytes are invisible to replication.
std::optional<std::string> divergence(const std::string& leader_dir,
                                      const std::string& follower_dir);

}  // namespace ilc::repl
