// cluster::Registry — the shard map as a service, replacing the
// hand-wired --shard-of/--follower-of topology of PR 8. One node serves
// the authoritative map (shard -> {leader, ship port, followers}); every
// other party — clients building Routers, replicas joining the fleet,
// the promoter announcing a failover — reads and writes it over a tiny
// line protocol:
//
//   get                                   -> map epoch=<e> shards=<n>
//                                            shard <i> leader=<h:p> ship=<p>
//                                              followers=<h:p,...|->
//                                            ... one line per shard ...
//                                            end
//   epoch                                 -> epoch <e>
//   lead <shard> <h:p> <ship_port> <ke>   -> ok epoch=<e> | err fenced: ...
//   follow <shard> <h:p>                  -> ok epoch=<e>
//
// Every accepted change bumps the map's epoch, so clients cache the map
// and refresh only when a cheap `epoch` poll shows it moved. Liveness is
// not part of the map: each client probes endpoints itself
// (cluster::HealthMonitor) and marks its own Router.
//
// Fencing: `lead` carries the announcer's known epoch (`<ke>`). Each
// shard remembers the epoch of its last leadership change; an
// announcement whose known epoch is older is refused — a resurrected
// old leader, whose view of the world predates its own replacement,
// cannot reclaim the shard by simply re-announcing. This is the control
// plane half of the fence; the data plane half is the WAL generation
// bump (kbstore::Store::promote_to_leader) that makes the old leader's
// stream unacceptable to every promoted replica.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/blocking.hpp"
#include "obs/metrics.hpp"
#include "repl/router.hpp"

namespace ilc::cluster {

struct ShardEntry {
  repl::Endpoint leader;
  std::uint16_t ship_port = 0;  ///< leader's WAL-shipping port
  std::vector<repl::Endpoint> followers;
};

struct ShardMap {
  std::uint64_t epoch = 0;
  std::vector<ShardEntry> shards;
};

/// Wire codec for the `get` response (header + shard lines + "end").
std::vector<std::string> encode_shard_map(const ShardMap& map);
bool decode_shard_map(const std::vector<std::string>& lines, ShardMap& out);

/// A Router topology from a map: one Shard per entry, followers in
/// announcement order.
std::vector<repl::Router::Shard> to_router_shards(const ShardMap& map);

/// The authoritative map. Thread-safe; the server below and in-process
/// tests share handle() for command dispatch.
class Registry {
 public:
  explicit Registry(std::size_t shard_count,
                    obs::Registry* metrics = nullptr);

  std::uint64_t epoch() const;
  ShardMap snapshot() const;

  /// Leadership announcement, fenced by `known_epoch` (see file
  /// comment). True bumps the epoch; false leaves the map untouched and
  /// puts the reason in `why`.
  bool lead(std::size_t shard, const repl::Endpoint& leader,
            std::uint16_t ship_port, std::uint64_t known_epoch,
            std::string* why = nullptr);
  /// Register a follower of `shard` (idempotent). Also removes it from
  /// any stale role it held elsewhere in the map.
  bool follow(std::size_t shard, const repl::Endpoint& ep);

  /// Dispatch one protocol line; the full response, '\n'-terminated
  /// (multi-line for `get`).
  std::string handle(const std::string& line);

 private:
  mutable std::mutex mu_;
  ShardMap map_;
  std::vector<std::uint64_t> lead_epoch_;  // per-shard fence
  obs::Gauge g_epoch_;
  obs::Counter changes_;
  obs::Counter fenced_;
};

/// Serves a Registry over loopback TCP on a net::Listener, one thread
/// per connection (control plane traffic is light; every connection
/// handles any number of commands, one line each).
class RegistryServer {
 public:
  /// Listen on 127.0.0.1:`port` (0 = ephemeral). nullptr when the port
  /// cannot be bound. The Registry must outlive the server.
  static std::unique_ptr<RegistryServer> start(Registry& registry,
                                               std::uint16_t port);

  RegistryServer(const RegistryServer&) = delete;
  RegistryServer& operator=(const RegistryServer&) = delete;

  std::uint16_t port() const { return listener_->port(); }

 private:
  RegistryServer() = default;
  void session(net::Fd fd, const std::atomic<bool>& stop) const;

  Registry* registry_ = nullptr;
  // Declared last, so it is destroyed first: its sessions use registry_.
  std::unique_ptr<net::Listener> listener_;
};

/// Client-side cache of the map with epoch-based refresh. Connection
/// per call: control plane operations are rare (a refresh happens only
/// when the epoch moved) and a pooled connection is not worth its
/// failure modes here.
class RegistryClient {
 public:
  explicit RegistryClient(repl::Endpoint registry_ep, int timeout_ms = 1000);

  /// Fetch the full map unconditionally. False on IO/parse failure (the
  /// cached map is kept).
  bool fetch(std::string* err = nullptr);
  /// Poll the epoch; fetch only when it moved. True when the cache is
  /// fresh on return.
  bool refresh(std::string* err = nullptr);

  std::uint64_t epoch() const { return cache_.epoch; }
  std::vector<repl::Router::Shard> router_shards() const {
    return to_router_shards(cache_);
  }

  bool lead(std::size_t shard, const repl::Endpoint& leader,
            std::uint16_t ship_port, std::uint64_t known_epoch,
            std::string* why = nullptr);
  bool follow(std::size_t shard, const repl::Endpoint& ep,
              std::string* why = nullptr);

 private:
  bool command(const std::string& line, std::string* why);

  repl::Endpoint registry_ep_;
  int timeout_ms_;
  ShardMap cache_;
};

}  // namespace ilc::cluster
