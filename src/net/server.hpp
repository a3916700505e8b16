// net::Server — the epoll-based TCP front-end of the tuning service: the
// piece that turns svc::TuningService from a library into a network
// server. One acceptor + N event-loop threads multiplex thousands of
// connections; each connection runs a net::Session state machine
// (incremental line parsing, request pipelining, in-order responses) and
// the loops handle buffering, backpressure, eviction, and shutdown:
//
//   accept    loop 0 owns the listener; accepted sockets are handed
//             round-robin to the loops through an eventfd mailbox.
//   read      level-triggered EPOLLIN; bytes append to a per-connection
//             buffer and complete lines feed the Session. A line (or an
//             unterminated buffer) over svc::kMaxRequestLine gets a clean
//             `err` response and the connection is closed after it flushes.
//   respond   service completions wake the owning loop via the mailbox;
//             ready responses append to a bounded write buffer, flushed
//             opportunistically and via EPOLLOUT.
//   backpressure  a write buffer at max_wbuf stops reads (the kernel
//             then pushes back on the client); a flush stalled longer
//             than write_stall_ms evicts the slow reader, an idle
//             connection longer than idle_timeout_ms is evicted too.
//   shutdown  graceful: stop accepting, stop reading, let in-flight
//             requests resolve and responses flush (for up to 5 s),
//             force-close stragglers, join the loops.
//             A client that disconnects mid-request just stops being
//             listened to — the service's completion guard retires the
//             work, no worker hangs, no connection leaks.
//
// Destroy order: Server before its TuningService (sessions reference the
// service; completions outliving a connection are dropped via weak_ptr).
//
// Observability: each server counts into an obs::Registry of its own,
// read through metrics() (nothing lands in the process-wide registry),
// and records a per-request `net.request` trace span rooted at socket
// readability that the service's svc.submit span parents onto.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/service.hpp"

namespace ilc::net {

struct ServerOptions {
  /// 0 = kernel-assigned ephemeral port; see Server::port().
  std::uint16_t port = 0;
  /// Event-loop threads (loop 0 also accepts). The svc worker pool does
  /// the heavy lifting; loops only shuffle bytes, so a small number
  /// multiplexes thousands of connections.
  std::size_t loops = 1;
  /// Connections beyond this are closed before registration
  /// (0 = unbounded).
  std::size_t max_conns = 0;
  /// Per-connection write-buffer bound; at or above it the connection
  /// stops reading until the buffer drains below half (backpressure).
  std::size_t max_wbuf = 256 * 1024;
  /// Evict a connection whose flush has been stalled this long (slow or
  /// dead reader). 0 disables.
  std::uint64_t write_stall_ms = 5000;
  /// Evict a connection with no traffic and no pending work for this
  /// long. 0 disables.
  std::uint64_t idle_timeout_ms = 0;
  /// SO_SNDBUF for accepted sockets, 0 = kernel default. Tests shrink it
  /// to make slow-reader eviction deterministic.
  int sndbuf = 0;
};

class Server {
 public:
  /// Binds 127.0.0.1 and starts the loops. Throws std::runtime_error on
  /// bind/listen failure.
  Server(svc::TuningService& service, ServerOptions opts);
  ~Server();  // shutdown() if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral one when ServerOptions::port was 0).
  std::uint16_t port() const { return port_; }

  /// Graceful shutdown; idempotent, safe from any non-loop thread.
  void shutdown();

  /// This server's counts:
  ///   net.conns_accepted      registered with an event loop
  ///   net.conns_closed        every close, evictions included
  ///   net.conns_active        gauge: open now (admission and the
  ///                           shutdown drain read the same count)
  ///   net.conns_evicted_idle, net.conns_evicted_slow
  ///   net.conns_over_limit    refused before registration: max_conns
  ///   net.accept_faults       dropped by the net.accept failpoint
  ///   net.bytes_in, net.bytes_out
  ///   net.responses           tune responses written
  ///   net.request_us          histogram: readability to response write
  /// The leak invariant every test and bench asserts: after shutdown,
  /// net.conns_active == 0 and net.conns_accepted == net.conns_closed.
  obs::RegistrySnapshot metrics() const { return reg_.snapshot(); }

 private:
  friend class EventLoop;
  friend class Conn;

  svc::TuningService& service_;
  ServerOptions opts_;
  std::uint16_t port_ = 0;
  obs::Registry reg_;
  const obs::Counter accepted_ = reg_.counter("net.conns_accepted");
  const obs::Counter closed_ = reg_.counter("net.conns_closed");
  const obs::Gauge active_ = reg_.gauge("net.conns_active");
  const obs::Counter evicted_idle_ = reg_.counter("net.conns_evicted_idle");
  const obs::Counter evicted_slow_ = reg_.counter("net.conns_evicted_slow");
  const obs::Counter over_limit_ = reg_.counter("net.conns_over_limit");
  const obs::Counter accept_faults_ = reg_.counter("net.accept_faults");
  const obs::Counter bytes_in_ = reg_.counter("net.bytes_in");
  const obs::Counter bytes_out_ = reg_.counter("net.bytes_out");
  const obs::Counter responses_ = reg_.counter("net.responses");
  const obs::Histogram request_us_ = reg_.histogram("net.request_us");
  std::vector<std::unique_ptr<class EventLoop>> loops_;
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<bool> draining_{false};
  std::atomic<bool> force_close_{false};
  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;
};

}  // namespace ilc::net
