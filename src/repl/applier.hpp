// repl::Applier — the follower side of WAL shipping: replays a leader's
// wire messages into a read-only, follower-mode kbstore::Store. Every
// shipped frame is CRC-verified and decoded again on this side, once, by
// the store's walk of the batch, before a byte reaches the follower's
// log; frames and snapshot images land verbatim, so a caught-up
// follower's files are byte-identical to the leader's durable state — the
// zero-divergence invariant the fault suite and bench gate on.
//
// What the Applier refuses, and why:
//   * a Frames batch for another generation or a non-contiguous sequence
//     (a gap or a rewind) — the transport must re-handshake, not guess;
//   * a Snapshot older than the follower's current generation — a stale
//     leader (or a replayed ship) must not roll acknowledged state back;
//   * anything after the leader sent Reject — split-brain is an operator
//     problem, not something to retry through.
//
// Crash safety is inherited from kbstore recovery: a follower killed
// mid-apply leaves a torn WAL tail, open() truncates it, and hello()
// reports the surviving position, so replication resumes exactly where
// durability stopped. Serving is plain Store::find on the replicated
// index — warm-cache reads scale by pointing more clients at followers.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "kbstore/store.hpp"
#include "obs/metrics.hpp"
#include "repl/wire.hpp"

namespace ilc::repl {

struct ApplierOptions {
  /// Storage options for the follower store; `follower` is forced on.
  kbstore::Options store;
  /// Gauge/counter name prefix: an in-process fleet (tests, the
  /// kb_replica example) gives each follower its own, e.g. "repl.f1".
  std::string metric_prefix = "repl";
  /// Registry to publish into; nullptr = the process-wide instance.
  obs::Registry* registry = nullptr;
};

class Applier {
 public:
  using Options = ApplierOptions;

  /// Open (creating if needed) the follower store at `dir`, running
  /// crash recovery — a torn previous ship is truncated here. Returns
  /// nullptr when the directory is unusable or holds a corrupt store.
  static std::unique_ptr<Applier> open(const std::string& dir,
                                       Options opts = {},
                                       kbstore::RecoveryInfo* info = nullptr);

  /// The handshake message for (re)connecting: the durable position.
  Msg hello() const;

  /// Apply one leader message. False on rejection or a store failure;
  /// `why` explains. After a false return the session is dead — the
  /// caller reconnects (transient) or stops (Reject/split-brain).
  bool apply(const Msg& m, std::string* why = nullptr);

  kbstore::WalPosition position() const { return store_->wal_position(); }
  /// Frames behind the leader's last reported position. A generation
  /// mismatch (mid-bootstrap) reports the leader's whole WAL as lag.
  std::uint64_t lag() const;
  /// The leader rejected this follower (split-brain); reason in `why`.
  bool rejected(std::string* why = nullptr) const;

  /// Read-only serving against the replicated index.
  std::optional<kb::ExperimentRecord> find(const std::string& program,
                                           const std::string& machine,
                                           const std::string& kind) const {
    return store_->find(program, machine, kind);
  }
  const kbstore::Store& store() const { return *store_; }

  /// Cluster failover: drain this follower into a leader. The caller
  /// must have stopped the shipping transport first (ShipClient::stop
  /// joins its thread, so everything received has been applied). Flips
  /// the store onto a fresh generation (Store::promote_to_leader — the
  /// fence) and returns it; the Applier keeps serving reads through the
  /// same store but refuses every further replication message, so a
  /// stream from a resurrected old leader cannot land here. nullptr when
  /// already promoted or the store flip fails; `why` says which.
  std::shared_ptr<kbstore::Store> promote(std::string* why = nullptr);

  /// True once promote() succeeded: this replica is now a leader.
  bool promoted() const;

 private:
  Applier() = default;

  std::shared_ptr<kbstore::Store> store_;

  mutable std::mutex mu_;  // leader position + reject/promote state
  std::uint64_t leader_gen_ = 0;
  std::uint64_t leader_seq_ = 0;
  bool rejected_ = false;
  bool promoted_ = false;
  std::string reject_reason_;

  obs::Counter frames_applied_;
  obs::Counter snapshots_installed_;
  obs::Counter rejects_;
  obs::Gauge lag_frames_;
};

}  // namespace ilc::repl
