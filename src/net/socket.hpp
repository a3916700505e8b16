// ilc::net sockets — the thin POSIX layer under both socket shapes of
// ilc::net, the epoll front-end and the blocking transport: an RAII fd,
// nonblocking loopback TCP listen/connect helpers, and
// fault-injectable read/write wrappers. Everything above this file talks
// in terms of these helpers, so the `net.accept` / `net.read` /
// `net.write` failpoints make disconnects, resets, and short writes
// deterministic in tests and benches:
//
//   net.accept=error*2   the next two accepted connections are dropped
//                        immediately (as if the handshake died)
//   net.read=error       reads report a connection reset
//   net.write=error*N    the next N writes move at most one byte (a
//                        deterministic short write; the event loop must
//                        finish the job via its write buffer + EPOLLOUT)
//
// Linux-only by design (epoll, accept4, eventfd), like the subsystem it
// serves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace ilc::net {

/// Move-only owner of a file descriptor; -1 = empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();  // close if valid

 private:
  int fd_ = -1;
};

/// Outcome of a read_some/write_some call, folding errno handling into
/// four cases the connection state machine cares about.
enum class IoStatus {
  Ok,         // moved >= 1 byte
  WouldBlock, // EAGAIN/EWOULDBLOCK: wait for readiness
  Eof,        // read: orderly peer shutdown
  Error,      // reset / EPIPE / injected fault: hard-close the connection
};

struct IoResult {
  IoStatus status = IoStatus::Error;
  std::size_t bytes = 0;
};

/// Bind and listen on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
/// port, reported back through `bound_port`), nonblocking, SO_REUSEADDR,
/// backlog sized for thousands of simultaneous connects. Throws
/// std::runtime_error with errno text on failure. Loopback-only on
/// purpose: the tuning protocol has no authentication.
Fd listen_tcp(std::uint16_t port, std::uint16_t& bound_port);

/// Nonblocking connect to 127.0.0.1:`port`. Returns an Fd mid-handshake
/// (poll for writability) or an empty Fd when the kernel refuses
/// immediately. Used by the load generator and tests.
Fd connect_tcp(std::uint16_t port);

/// accept4(NONBLOCK) + TCP_NODELAY. Empty Fd when nothing is pending or
/// the `net.accept` failpoint dropped the connection (`*dropped` = true).
Fd accept_conn(int listen_fd, bool* dropped);

/// read(2) with EINTR retry and the `net.read` failpoint.
IoResult read_some(int fd, char* buf, std::size_t n);

/// write(2) with EINTR retry, MSG_NOSIGNAL (no SIGPIPE), and the
/// `net.write` short-write failpoint.
IoResult write_some(int fd, const char* buf, std::size_t n);

/// poll(2) for readability / writability with a millisecond timeout
/// (negative = wait forever). True when the fd became ready (including
/// error/hup readiness — the next read/write reports the real status);
/// false on timeout. For the blocking side of ilc::net (blocking.hpp),
/// whose sessions run on dedicated threads rather than the epoll event
/// loop.
bool wait_readable(int fd, int timeout_ms);
bool wait_writable(int fd, int timeout_ms);

/// Raise RLIMIT_NOFILE's soft limit toward the hard limit until at least
/// `need` descriptors fit (best effort; returns the resulting soft
/// limit). The load generator holds thousands of sockets per process.
std::size_t ensure_fd_capacity(std::size_t need);

}  // namespace ilc::net
