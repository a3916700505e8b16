// repl transport — WAL shipping over loopback TCP, built on the blocking
// side of ilc::net (net/blocking.hpp) rather than the epoll event loop:
// replication sessions are few (one per follower) and long-lived, so a
// dedicated thread per session is the simple, obviously-correct shape.
//
//   ShipServer  runs next to a leader store: a net::Listener accepts
//               follower connections, and each session answers the
//               follower's Hello with its own ShipSource, then streams
//               Snapshot/Frames/Heartbeat until the follower drops or the
//               server stops. A split-brain follower gets its Reject and
//               the connection is closed.
//
//   ShipClient  runs next to a follower's Applier: connects (and
//               reconnects — leader restarts are expected), sends the
//               Applier's durable position as Hello, and applies the
//               stream. A torn ship (connection cut mid-message) leaves
//               the MsgReader holding an incomplete tail that is simply
//               dropped on reconnect; durability was never at stake
//               because the Applier only acknowledges complete, verified
//               frames. A Reject from the leader stops the client
//               permanently — resuming split-brain automatically would
//               destroy the evidence an operator needs.
//
// Failpoint: `repl.ship` makes the server cut a session's write
// mid-buffer and drop the connection — the deterministic torn-ship-over-
// TCP fault of the test suite.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/blocking.hpp"
#include "repl/applier.hpp"
#include "repl/ship.hpp"

namespace ilc::repl {

class ShipServer {
 public:
  /// Listen on 127.0.0.1:`port` (0 = ephemeral) and serve the store at
  /// `dir`. Returns nullptr when the port cannot be bound.
  static std::unique_ptr<ShipServer> start(std::string dir,
                                           std::uint16_t port);

  ShipServer(const ShipServer&) = delete;
  ShipServer& operator=(const ShipServer&) = delete;

  std::uint16_t port() const { return listener_->port(); }

  /// Stop accepting and end every session (joins them).
  void stop() { listener_->stop(); }

 private:
  ShipServer() = default;
  void session(net::Fd fd, const std::atomic<bool>& stop) const;

  std::string dir_;
  // Declared last, so it is destroyed first: its sessions read dir_.
  std::unique_ptr<net::Listener> listener_;
};

class ShipClient {
 public:
  /// Start replicating into `applier` from the leader at 127.0.0.1:
  /// `leader_port`. The Applier must outlive the client.
  static std::unique_ptr<ShipClient> start(Applier& applier,
                                           std::uint16_t leader_port);
  ~ShipClient();

  /// Permanently stopped: the leader rejected us (split-brain). The
  /// reason is in applier().rejected(&why).
  bool stopped() const { return stopped_.load(); }
  /// Successful connections so far (tests watch this across a leader
  /// restart).
  std::uint64_t connects() const { return connects_.load(); }

  void stop();

 private:
  ShipClient() = default;
  void run();
  /// One connected session; false = transient (reconnect), true = done.
  bool session_once(int fd);
  bool sleep_for_ms(int ms);  // false when stop() interrupted the wait

  Applier* applier_ = nullptr;
  std::uint16_t port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> connects_{0};
  std::mutex cv_mu_;
  std::condition_variable cv_;
  std::thread thread_;
};

}  // namespace ilc::repl
