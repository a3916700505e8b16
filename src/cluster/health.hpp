// cluster::HealthMonitor — active health probing for a fleet of tuning
// services, closing the PR 8 gap where repl::Router health was marked by
// whoever happened to hit an IO error. The monitor probes every endpoint
// over the existing line protocol (`ping`, answered synchronously even
// on a saturated server) and drives a per-endpoint state machine:
//
//           probe ok                    probe fail
//   Healthy ----------- Healthy   Healthy ---------- Suspect
//   Suspect ----------- Healthy   Suspect --(down_after consecutive
//   Down    ----------- Recovering            failures total)-- Down
//   Recovering --(up_after consecutive     Recovering --------- Down
//                 successes)----- Healthy  Down -------------- Down
//
// Suspect is the grace period: the endpoint keeps serving (the Router is
// not told) until `down_after` consecutive probes fail, so one dropped
// packet does not fail over a healthy leader. Recovering is the
// symmetric debounce on the way back up.
//
// Wiring: watch() points the monitor at a repl::Router — reaching Down
// calls set_down, regaining Healthy calls set_up, so follower fallback
// becomes automatic. on_change() observes every transition (the failover
// path hangs a Promoter off leader-Down). probe_all_once() runs one
// synchronous round — the deterministic unit the tests, the failover
// bench and the demo drive, with no wall-clock dependence. The caller
// owns the cadence: the monitor has no thread of its own.
//
// Failpoint: `cluster.probe` fails the default ping probe (error kind),
// making "the leader died" a deterministic event in tests.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "repl/router.hpp"

namespace ilc::cluster {

enum class Health { Healthy, Suspect, Down, Recovering };

const char* to_string(Health h);

/// One synchronous line-protocol probe: connect, send "ping", expect an
/// "ok pong ..." reply within `timeout_ms`. The `cluster.probe`
/// failpoint (error kind) fails it deterministically.
bool ping_probe(const repl::Endpoint& ep, int timeout_ms);

struct HealthOptions {
  int probe_timeout_ms = 200;  ///< per-probe reply deadline
  int down_after = 3;  ///< consecutive failures before Down
  int up_after = 2;    ///< consecutive successes before Healthy again

  /// Probe implementation; tests inject a deterministic one. Default:
  /// ping_probe over the line protocol with probe_timeout_ms.
  std::function<bool(const repl::Endpoint&)> probe;

  /// Gauge/counter name prefix (an in-process fleet gives each monitor
  /// its own) and the registry to publish into (nullptr = process-wide).
  std::string metric_prefix = "cluster";
  obs::Registry* registry = nullptr;
};

class HealthMonitor {
 public:
  /// Every state transition: (endpoint, old, new). Fired outside the
  /// monitor's lock, on the thread running probe_all_once().
  using StateChange =
      std::function<void(const repl::Endpoint&, Health, Health)>;

  explicit HealthMonitor(HealthOptions opts = {});

  /// Register an endpoint (initially Healthy). Duplicates are ignored.
  void add(const repl::Endpoint& ep);

  /// Feed transitions into a Router: Down -> set_down, back to Healthy
  /// -> set_up. The Router must outlive the monitor (or be un-watched
  /// with nullptr first).
  void watch(repl::Router* router);
  void on_change(StateChange fn);

  Health state(const repl::Endpoint& ep) const;
  std::vector<std::pair<repl::Endpoint, Health>> states() const;

  /// One synchronous probe round over every endpoint.
  void probe_all_once();

 private:
  struct Slot {
    repl::Endpoint ep;
    Health state = Health::Healthy;
    int fails = 0;  // consecutive probe failures
    int oks = 0;    // consecutive successes while Recovering
    obs::Gauge gauge;  // current state as an integer
  };
  struct Transition {
    repl::Endpoint ep;
    Health from;
    Health to;
  };

  /// Apply one probe result to slot `i` (mu_ held); records the
  /// transition, if any, for post-unlock delivery.
  void apply_locked(std::size_t i, bool ok, std::vector<Transition>& out);

  HealthOptions opts_;
  obs::Counter probes_;
  obs::Counter probe_failures_;
  obs::Counter transitions_down_;
  obs::Counter transitions_up_;

  mutable std::mutex mu_;  // guards slots_, router_, on_change_
  std::vector<Slot> slots_;
  repl::Router* router_ = nullptr;
  StateChange on_change_;
};

}  // namespace ilc::cluster
