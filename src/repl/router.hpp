// repl::Router — client-side fingerprint-sharded routing over a fleet of
// tuning services. The key space is ir::fingerprint (a structural hash of
// the module being tuned), and ownership is the consistent modulo map
//
//   owner_of(fp, N) = fp % N
//
// which every party — clients, the services themselves (svc checks it to
// refuse wrong-shard writes), and operators reading logs — can compute
// with no coordination. Each shard is one leader process plus any number
// of read-only followers replicating its KB via WAL shipping.
//
// Routing policy: a request goes to its owning shard's primary. When the
// primary is marked down, route() falls back to one of that shard's
// followers *read-only* — a follower can serve warm-cache hits from the
// replicated KB but cannot run searches or accept writes, so the caller
// must treat a read_only route as "cache hit or nothing". Health comes
// from callers (set_down after a connect/IO failure, set_up after a
// successful probe) or from a cluster::HealthMonitor driving those same
// hooks from active probes; the Router itself never does IO. All methods
// are thread-safe: a monitor thread marks endpoints while client threads
// route. The topology is fixed at construction: after a failover, a
// client builds a fresh Router from the cluster::Registry's map
// (cluster::to_router_shards).
//
// Observability (process-wide registry unless one is injected):
//   repl.router.fallback_serves   routes answered by a follower
//   repl.router.unroutable        routes with no healthy endpoint at all
//   repl.router.mark_down         up -> down endpoint transitions
//   repl.router.mark_up           down -> up endpoint transitions
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ilc::repl {

/// One addressable service process. Loopback TCP in this repo, so an
/// endpoint is just a port plus a label for logs and tests.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
  friend bool operator==(const Endpoint& x, const Endpoint& y) {
    return x.port == y.port && x.host == y.host;
  }
  friend bool operator!=(const Endpoint& x, const Endpoint& y) {
    return !(x == y);
  }
};

/// The shard index owning fingerprint `fp` in an N-shard fleet.
inline std::size_t owner_of(std::uint64_t fp, std::size_t shard_count) {
  return shard_count == 0 ? 0 : static_cast<std::size_t>(fp % shard_count);
}

class Router {
 public:
  struct Shard {
    Endpoint primary;
    std::vector<Endpoint> followers;  // read-only fallbacks, in order
  };

  struct Route {
    Endpoint endpoint;
    std::size_t shard = 0;
    /// A follower was chosen: only warm-cache lookups are served there.
    bool read_only = false;
  };

  explicit Router(std::vector<Shard> shards,
                  obs::Registry* registry = nullptr);

  std::size_t shard_count() const { return shards_.size(); }

  /// Where to send work keyed by `fp`: the owning primary, or — when it
  /// is down — the first healthy follower of that shard, flagged
  /// read_only. nullopt when the whole shard is unreachable.
  std::optional<Route> route(std::uint64_t fp) const;

  /// Same policy addressed by shard index instead of key — the
  /// scatter-gather path, which visits every shard.
  std::optional<Route> route_shard(std::size_t shard) const;

  /// Mark an endpoint unhealthy / healthy again. Unknown endpoints are
  /// ignored (a stale config entry is not an error).
  void set_down(const Endpoint& ep) { mark(ep, true); }
  void set_up(const Endpoint& ep) { mark(ep, false); }

 private:
  void mark(const Endpoint& ep, bool down);
  std::optional<Route> route_shard_locked(std::size_t s) const;

  mutable std::mutex mu_;  // guards down_; shards_ is fixed at construction
  std::vector<Shard> shards_;
  // down_[shard][0] = primary, down_[shard][1 + k] = followers[k].
  std::vector<std::vector<bool>> down_;

  obs::Counter fallback_serves_;
  obs::Counter unroutable_;
  obs::Counter mark_down_;
  obs::Counter mark_up_;
};

}  // namespace ilc::repl
