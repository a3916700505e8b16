// ilc::net blocking transport — the second socket shape of ilc::net, next
// to the epoll net::Server. The epoll server multiplexes thousands of
// short tuning requests. Everything else that speaks over loopback is a
// handful of connections, each driven from its own thread: WAL shipping
// (repl), the shard registry, health probes and scatter queries
// (cluster). This file is that side, in one place:
//
//   connect_within / write_all / LineReader / request_line
//       poll(2)-based I/O for one exchange at a time. Every call takes
//       its own deadline, so a peer that accepts the connection and then
//       goes silent costs the caller `timeout_ms`, never a hang.
//
//   Listener
//       thread-per-connection server: one acceptor thread, one thread per
//       session. The acceptor joins finished sessions as it goes, so a
//       long run of short connections holds only the threads still
//       serving. stop() raises the flag every session polls, then joins
//       the rest.
//
// A long-lived session (a follower streaming the WAL) writes with no
// deadline, because a slow follower must still be waited on, and polls
// the listener's stop flag instead. write_all serves both kinds of
// caller.
//
// Sockets are 127.0.0.1-only (socket.hpp), so an endpoint is a port.
// The `net.accept`, `net.read` and `net.write` failpoints apply here as
// they do in the epoll server.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "net/socket.hpp"

namespace ilc::net {

/// The `timeout_ms` of a write_all without a deadline.
inline constexpr int kNoDeadline = -1;

/// Connect to 127.0.0.1:`port`, waiting at most `timeout_ms` for the
/// handshake. Empty Fd on refusal or timeout; `err` says which.
Fd connect_within(std::uint16_t port, int timeout_ms,
                  std::string* err = nullptr);

/// Write all of `data`, waiting out short writes and EAGAIN. The whole
/// write must finish within `timeout_ms` (kNoDeadline: no bound). A
/// non-null `stop` is polled while waiting, and a raised flag abandons
/// the write. False on a hard error, the deadline or stop; `err` says
/// which.
bool write_all(int fd, std::string_view data, int timeout_ms,
               const std::atomic<bool>* stop = nullptr,
               std::string* err = nullptr);

/// Incremental line reader over a nonblocking fd: buffers partial reads
/// across calls, so a multi-line response (the registry's `get`) is
/// consumed line by line with one deadline each.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next '\n'-terminated line (terminator stripped) within `timeout_ms`.
  /// False on EOF, error or deadline; `err` says which ("read timeout"
  /// for the deadline).
  bool next(std::string& line, int timeout_ms, std::string* err = nullptr);

 private:
  int fd_;
  std::string buf_;
};

/// One-shot exchange with 127.0.0.1:`port`: connect, send `request` (a
/// '\n' is appended when missing), read one response line. The connect,
/// the write and the read each get their own `timeout_ms`, so a slow
/// peer can cost up to three times that.
bool request_line(std::uint16_t port, std::string request, int timeout_ms,
                  std::string& reply, std::string* err = nullptr);

/// Thread-per-connection server on 127.0.0.1 (see the file comment).
class Listener {
 public:
  /// One connection's body, run on its own thread. It owns `fd`, and
  /// returns soon after `stop` is raised. It must not throw: an exception
  /// escaping a session ends the process.
  using SessionBody =
      std::function<void(Fd fd, const std::atomic<bool>& stop)>;

  /// Listen on 127.0.0.1:`port` (0 = ephemeral) and run `session` for
  /// every accepted connection. nullptr when the port cannot be bound.
  static std::unique_ptr<Listener> start(std::uint16_t port,
                                         SessionBody session);
  ~Listener();  // stop()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Raise the stop flag, close the listening socket and join every
  /// session. Idempotent.
  void stop();

 private:
  struct Worker {
    std::thread thread;
    std::atomic<bool> done{false};  // the session returned
  };

  Listener() = default;
  void accept_loop();
  void spawn(Fd conn);
  void reap();  // join the sessions that have returned

  SessionBody session_;
  Fd listen_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  // Only the acceptor touches the list while it runs; stop() takes it
  // over after joining the acceptor. std::list: a running session holds
  // a reference to its Worker.
  std::list<Worker> workers_;
  std::thread acceptor_;
};

}  // namespace ilc::net
