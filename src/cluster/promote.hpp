// cluster::Promoter — automatic failover for one shard: when the leader
// dies, turn the best follower into the new leader and re-point the
// rest, without losing a single acknowledged record.
//
// Promotion protocol (failover()):
//   1. Stop every follower's ShipClient. stop() joins the shipping
//      thread, so each Applier has fully applied everything it ever
//      received — the drain step.
//   2. Pick the most-caught-up follower: max (generation, seq) of the
//      durable WalPosition. Replication acknowledges only flushed,
//      verified frames, so this is on-disk truth, not an optimistic
//      in-memory counter.
//   3. Promote its Applier: the kbstore flips out of follower mode onto
//      a *new WAL generation* (an immediate fencing compaction). From
//      here the old leader's stream is undeliverable to this store (its
//      generation is dead history), and — by the existing split-brain
//      handshake checks — this store's own stream rejects any follower
//      whose position is ahead of or divergent from the new history.
//   4. Start a ShipServer over the promoted store and restart the
//      remaining followers' ShipClients against it. A follower behind
//      the promoted position bootstraps from the promotion snapshot; a
//      follower that had applied frames the new leader never saw (it
//      was ahead of the chosen one — impossible if pick() ran after the
//      drain, but possible with a partitioned straggler) is rejected by
//      the chain/generation check, never silently rewritten.
//
// A resurrected old leader is fenced twice over: its data stream is for
// a dead generation (data plane), and its registry re-announcement
// carries a pre-failover epoch (control plane, cluster::Registry).
//
// The Promoter coordinates replicas living in this process (the
// deterministic-test and example topology; every replica in this repo
// is in-process by design — see repl's loopback transport). What it
// manipulates — Applier, ShipClient, ShipServer, store directories —
// is exactly what a multi-process supervisor would hold per replica.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kbstore/store.hpp"
#include "obs/metrics.hpp"
#include "repl/transport.hpp"

namespace ilc::cluster {

/// One follower replica of the shard, as the supervisor holds it.
struct Replica {
  std::string dir;  ///< store directory (for the new ShipServer)
  std::shared_ptr<repl::Applier> applier;
  std::unique_ptr<repl::ShipClient> client;  ///< shipping from the old leader
};

struct PromotionResult {
  bool ok = false;
  std::string why;  ///< failure reason when !ok
  std::size_t chosen = 0;  ///< index of the promoted replica
  std::uint64_t generation = 0;  ///< post-promotion (fenced) generation
  std::shared_ptr<kbstore::Store> store;  ///< the new leader store
  std::unique_ptr<repl::ShipServer> ship;  ///< its WAL-shipping server
};

struct PromoterOptions {
  std::string metric_prefix = "cluster";
  obs::Registry* registry = nullptr;  ///< nullptr = process-wide
};

class Promoter {
 public:
  explicit Promoter(const PromoterOptions& opts = {});

  /// The most-caught-up replica: max (generation, seq), ties to the
  /// lowest index. Call after draining (clients stopped) for an exact
  /// answer. Returns replicas.size() when the vector is empty.
  static std::size_t pick(const std::vector<Replica>& replicas);

  /// Run the full promotion protocol (see file comment) over the
  /// shard's surviving replicas. On success the chosen replica's
  /// `client` is cleared (it is nobody's follower now) and the others'
  /// are replaced with clients of the new leader; the result carries
  /// the promoted store and its ShipServer (listening on `ship_port`,
  /// 0 = ephemeral). On failure the replicas are left drained
  /// (clients stopped) but otherwise untouched.
  PromotionResult failover(std::vector<Replica>& replicas,
                           std::uint16_t ship_port = 0);

  std::uint64_t failovers() const { return failovers_.value(); }

 private:
  obs::Counter failovers_;
  obs::Histogram promotion_us_;
  obs::Gauge last_promotion_us_;
  obs::Gauge generation_;
};

}  // namespace ilc::cluster
