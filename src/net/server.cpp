// The event-loop core of the TCP front-end. Three pieces live in this
// translation unit, layered bottom-up:
//
//   Mailbox    the cross-thread door into a loop: accepted sockets and
//              session-completion wakeups are posted here (mutex + vector
//              + eventfd). Service workers reach a loop *only* through
//              its mailbox, so every Conn is touched by exactly one
//              thread and the whole layer needs no per-connection locks.
//   Conn       per-connection state machine: incremental line extraction
//              feeding a net::Session, bounded write buffer, flush/
//              backpressure/eviction bookkeeping. Runs strictly on its
//              owning loop's thread.
//   EventLoop  epoll_wait loop (level-triggered) over { mailbox eventfd,
//              listener (loop 0), conns }, plus a ~25ms sweep for idle /
//              write-stall eviction and the shutdown drain phases.
#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/session.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/protocol.hpp"

namespace ilc::net {

namespace {

using Clock = std::chrono::steady_clock;

// epoll user-data tags for the two non-connection fds. Connection ids
// start at 1 and count up; these sit at the top of the space.
constexpr std::uint64_t kMailboxTag = ~0ULL;
constexpr std::uint64_t kListenerTag = ~0ULL - 1;

// Graceful-shutdown budget: how long shutdown() waits for in-flight
// requests to resolve and responses to flush before force-closing.
constexpr std::chrono::milliseconds kDrainTimeout{5000};

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

}  // namespace

namespace {

/// The only cross-thread door into an event loop. post_* may be called
/// from any thread (service workers, the acceptor, shutdown); the loop
/// drains on its own thread. Held by shared_ptr from the loop and from
/// every session wake hook, so a completion firing after its loop exited
/// lands in a closed mailbox and is dropped — never a dangling pointer.
struct Mailbox {
  Mailbox() : efd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (!efd.valid()) throw std::runtime_error("eventfd failed");
  }

  Fd efd;
  std::mutex mu;
  bool closed = false;
  std::vector<int> new_fds;
  std::vector<std::uint64_t> wakes;

  void post_fd(int fd) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) {
        ::close(fd);
        return;
      }
      new_fds.push_back(fd);
    }
    signal();
  }

  void post_wake(std::uint64_t conn_id) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) return;
      wakes.push_back(conn_id);
    }
    signal();
  }

  void kick() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) return;
    }
    signal();
  }

  /// Loop thread: consume the eventfd and take the posted work.
  void drain(std::vector<int>& fds, std::vector<std::uint64_t>& w) {
    std::uint64_t count = 0;
    while (::read(efd.get(), &count, sizeof count) > 0) {
    }
    std::lock_guard<std::mutex> lock(mu);
    fds.swap(new_fds);
    w.swap(wakes);
  }

  /// Loop thread, on exit: late posts are dropped, orphaned sockets
  /// closed (they were never registered, so they are not in any counter).
  void close_box() {
    std::vector<int> orphans;
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
      orphans.swap(new_fds);
      wakes.clear();
    }
    for (const int fd : orphans) ::close(fd);
  }

  void signal() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(efd.get(), &one, sizeof one);
  }
};

}  // namespace

class Conn;

class EventLoop {
 public:
  EventLoop(Server& server, std::size_t index);
  ~EventLoop();

  void adopt_listener(Fd listener);  // loop 0, before start()
  void start();
  void join();
  std::shared_ptr<Mailbox>& mailbox() { return mailbox_; }
  Server& server() { return server_; }
  int epfd() const { return epfd_.get(); }

 private:
  friend class Conn;

  void run();
  void accept_ready();
  void add_conn(int raw_fd);
  void close_conn(std::uint64_t id, int reason);
  void process_mailbox();
  void begin_drain();
  void sweep(Clock::time_point now);
  void force_close_all();

  Server& server_;
  std::size_t index_;
  Fd epfd_;
  Fd listener_;
  std::shared_ptr<Mailbox> mailbox_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::thread thread_;
  std::size_t rr_next_ = 0;  // round-robin cursor (acceptor loop only)
  Clock::time_point last_sweep_{};
  bool drain_started_ = false;
};

/// Per-connection state machine. Every method runs on the owning loop's
/// thread; the only concurrency is the Session completion path, which
/// stays inside the session and reaches this class via the mailbox.
class Conn {
 public:
  // Why a connection ended; close_conn turns this into counters.
  enum Reason { kNone = 0, kNormal, kError, kEvictIdle, kEvictSlow, kForced };

  Conn(EventLoop& loop, Fd fd, std::uint64_t id)
      : loop_(loop),
        fd_(std::move(fd)),
        id_(id),
        last_activity_(Clock::now()) {
    session_ = Session::create(
        loop_.server().service_,
        {.wake = [mb = loop_.mailbox(), id] { mb->post_wake(id); }});
  }

  int fd() const { return fd_.get(); }
  int dead() const { return dead_; }

  void on_event(std::uint32_t events) {
    if (events & EPOLLERR) {
      dead_ = kError;
      return;
    }
    if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) read_input();
    if (dead_ != kNone) return;
    pump();
    if (dead_ != kNone) return;
    finish_or_rearm();
  }

  /// Mailbox wakeup: a deferred response became ready.
  void on_wake() {
    pump();
    if (dead_ != kNone) return;
    finish_or_rearm();
  }

  /// Graceful shutdown: no more input; finish in-flight work and flush.
  void drain_now() {
    stop_reading_ = true;
    closing_ = true;
    rbuf_.clear();
    scan_ = 0;
    pump();
    if (dead_ != kNone) return;
    finish_or_rearm();
  }

  /// Periodic timeout scan.
  void sweep(Clock::time_point now) {
    if (dead_ != kNone) return;
    const ServerOptions& o = loop_.server().opts_;
    if (o.write_stall_ms != 0 && write_blocked_ &&
        now - write_blocked_since_ >=
            std::chrono::milliseconds(o.write_stall_ms)) {
      dead_ = kEvictSlow;
      return;
    }
    if (o.idle_timeout_ms != 0 && session_->idle() && wbuf_.empty() &&
        now - last_activity_ >= std::chrono::milliseconds(o.idle_timeout_ms))
      dead_ = kEvictIdle;
  }

 private:
  void read_input() {
    if (stop_reading_ && !read_closed_) {
      // Input no longer wanted (oversize violation / quit / draining):
      // swallow and discard so the peer is not blocked mid-send, but
      // still notice EOF and errors.
      char sink[4096];
      for (;;) {
        const IoResult r = read_some(fd_.get(), sink, sizeof sink);
        if (r.status == IoStatus::Ok) continue;
        if (r.status == IoStatus::Eof) read_closed_ = true;
        if (r.status == IoStatus::Error) dead_ = kError;
        return;
      }
    }
    if (read_closed_) return;
    const Clock::time_point t_ready = Clock::now();
    char buf[16384];
    // Bounded per event for fairness across connections; level-triggered
    // epoll re-reports whatever is left.
    for (int round = 0; round < 4; ++round) {
      const IoResult r = read_some(fd_.get(), buf, sizeof buf);
      if (r.status == IoStatus::WouldBlock) break;
      if (r.status == IoStatus::Eof) {
        // Half-close: the client finished sending (shutdown(SHUT_WR))
        // but may still be reading — deliver what it is owed, then close.
        read_closed_ = true;
        break;
      }
      if (r.status == IoStatus::Error) {
        dead_ = kError;
        return;
      }
      loop_.server().bytes_in_.add(r.bytes);
      last_activity_ = t_ready;
      rbuf_.append(buf, r.bytes);
      extract_lines(t_ready);
      if (stop_reading_ || r.bytes < sizeof buf) break;
    }
  }

  void extract_lines(Clock::time_point t_ready) {
    std::size_t pos;
    while (!stop_reading_ && (pos = rbuf_.find('\n', scan_)) !=
                                 std::string::npos) {
      std::string line = rbuf_.substr(0, pos);
      rbuf_.erase(0, pos + 1);
      scan_ = 0;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.size() > svc::kMaxRequestLine) {
        oversize(line.size());
        return;
      }
      session_->feed_line(line, t_ready);
      if (session_->quit_requested()) {
        // Anything pipelined after `quit` is dropped, as in stdin mode.
        stop_reading_ = true;
        rbuf_.clear();
        scan_ = 0;
        return;
      }
    }
    if (stop_reading_) return;
    scan_ = rbuf_.size();
    // An unterminated line must not grow a server-side buffer without
    // bound: over the protocol limit, answer and hang up.
    if (rbuf_.size() > svc::kMaxRequestLine) oversize(rbuf_.size());
  }

  void oversize(std::size_t bytes) {
    session_->fail("request line too long (" + std::to_string(bytes) +
                   " bytes, max " + std::to_string(svc::kMaxRequestLine) +
                   "); closing connection");
    stop_reading_ = true;
    closing_ = true;
    rbuf_.clear();
    scan_ = 0;
  }

  /// Move ready responses session -> write buffer, accounting latency and
  /// the per-request trace span at the moment bytes head for the socket.
  void pump() {
    std::string out;
    std::vector<Session::Done> done;
    if (session_->drain_ready(out, &done) == 0) {
      flush();
      return;
    }
    wbuf_ += out;
    const Clock::time_point now = Clock::now();
    const Server& server = loop_.server();
    for (const Session::Done& d : done) {
      if (!d.is_tune) continue;
      server.responses_.inc();
      server.request_us_.record(us_between(d.start, now));
      obs::Tracer::record_span("net.request", d.trace, /*parent_id=*/0,
                               d.start, now, {{"program", d.program}});
    }
    flush();
  }

  void flush() {
    while (woff_ < wbuf_.size()) {
      const IoResult r =
          write_some(fd_.get(), wbuf_.data() + woff_, wbuf_.size() - woff_);
      if (r.status == IoStatus::Ok) {
        woff_ += r.bytes;
        loop_.server().bytes_out_.add(r.bytes);
        last_activity_ = Clock::now();
        continue;
      }
      if (r.status == IoStatus::WouldBlock) break;
      dead_ = kError;
      return;
    }
    if (woff_ == wbuf_.size()) {
      wbuf_.clear();
      woff_ = 0;
      write_blocked_ = false;
    } else {
      if (woff_ > 0) {
        // Compact occasionally so a long-lived trickle flush cannot pin
        // an ever-growing buffer.
        wbuf_.erase(0, woff_);
        woff_ = 0;
      }
      if (!write_blocked_) {
        write_blocked_ = true;
        write_blocked_since_ = Clock::now();
      }
    }
  }

  /// Decide between closing and re-arming epoll interest.
  void finish_or_rearm() {
    const std::size_t outstanding = wbuf_.size() - woff_;
    if (outstanding == 0 && session_->idle() &&
        (closing_ || read_closed_ || session_->quit_requested())) {
      dead_ = kNormal;
      return;
    }
    // Backpressure with hysteresis: a full write buffer pauses reads (the
    // kernel's receive window then pushes back on the client); resume
    // below half to avoid flapping.
    const std::size_t cap = loop_.server().opts_.max_wbuf;
    if (cap != 0) {
      if (outstanding >= cap) paused_ = true;
      else if (outstanding <= cap / 2) paused_ = false;
    }
    std::uint32_t want = 0;
    if (!stop_reading_ && !read_closed_ && !paused_)
      want |= EPOLLIN | EPOLLRDHUP;
    if (outstanding > 0) want |= EPOLLOUT;
    if (want == armed_mask_) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = id_;
    if (::epoll_ctl(loop_.epfd(), EPOLL_CTL_MOD, fd_.get(), &ev) == 0)
      armed_mask_ = want;
  }

  EventLoop& loop_;
  Fd fd_;
  std::uint64_t id_;
  std::shared_ptr<Session> session_;

  std::string rbuf_;
  std::size_t scan_ = 0;  // rbuf_ scanned this far without finding '\n'
  std::string wbuf_;
  std::size_t woff_ = 0;  // wbuf_ flushed this far

  bool stop_reading_ = false;  // no further input is processed
  bool read_closed_ = false;   // EOF seen (half-close until flushed)
  bool closing_ = false;       // close as soon as idle and flushed
  bool paused_ = false;        // reads paused by write-buffer backpressure
  bool write_blocked_ = false;
  Clock::time_point write_blocked_since_{};
  Clock::time_point last_activity_;
  std::uint32_t armed_mask_ = EPOLLIN | EPOLLRDHUP;  // as registered by ADD
  int dead_ = kNone;
};

// ---- EventLoop -----------------------------------------------------------

EventLoop::EventLoop(Server& server, std::size_t index)
    : server_(server),
      index_(index),
      epfd_(::epoll_create1(EPOLL_CLOEXEC)),
      mailbox_(std::make_shared<Mailbox>()) {
  if (!epfd_.valid()) throw std::runtime_error("epoll_create1 failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kMailboxTag;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, mailbox_->efd.get(), &ev) != 0)
    throw std::runtime_error("epoll_ctl(mailbox) failed");
}

EventLoop::~EventLoop() {
  if (thread_.joinable()) {
    server_.stopping_.store(true, std::memory_order_relaxed);
    mailbox_->kick();
    thread_.join();
  }
}

void EventLoop::adopt_listener(Fd listener) {
  listener_ = std::move(listener);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, listener_.get(), &ev) != 0)
    throw std::runtime_error("epoll_ctl(listener) failed");
}

void EventLoop::start() {
  thread_ = std::thread([this] { run(); });
}

void EventLoop::join() {
  if (thread_.joinable()) thread_.join();
}

void EventLoop::run() {
  std::array<epoll_event, 128> events;
  last_sweep_ = Clock::now();
  for (;;) {
    const int n = ::epoll_wait(epfd_.get(), events.data(),
                               static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself broken: abandon ship, close everything
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kMailboxTag) continue;  // drained below, once
      if (tag == kListenerTag) {
        accept_ready();
        continue;
      }
      if (const auto it = conns_.find(tag); it != conns_.end()) {
        it->second->on_event(events[i].events);
        if (it->second->dead() != Conn::kNone)
          close_conn(tag, it->second->dead());
      }
    }
    process_mailbox();
    if (server_.draining_.load(std::memory_order_relaxed)) begin_drain();
    if (server_.force_close_.load(std::memory_order_relaxed))
      force_close_all();
    const Clock::time_point now = Clock::now();
    if (now - last_sweep_ >= std::chrono::milliseconds(25)) {
      sweep(now);
      last_sweep_ = now;
    }
    if (server_.stopping_.load(std::memory_order_relaxed)) break;
  }
  mailbox_->close_box();
  force_close_all();
}

void EventLoop::accept_ready() {
  for (;;) {
    if (!listener_.valid()) return;
    bool dropped = false;
    Fd fd = accept_conn(listener_.get(), &dropped);
    if (dropped) {
      server_.accept_faults_.inc();
      continue;
    }
    if (!fd.valid()) return;
    EventLoop& target = *server_.loops_[rr_next_++ % server_.loops_.size()];
    if (&target == this) {
      add_conn(fd.release());
    } else {
      target.mailbox()->post_fd(fd.release());
    }
  }
}

void EventLoop::add_conn(int raw_fd) {
  Fd fd(raw_fd);
  if (server_.stopping_.load(std::memory_order_relaxed) ||
      server_.force_close_.load(std::memory_order_relaxed))
    return;  // refused before registration; fd closes here
  // Reserve a slot in one atomic step: loops registering at once must not
  // all pass a max_conns check made before the others' increments.
  const std::int64_t open = server_.active_.add(1);
  const std::size_t max_conns = server_.opts_.max_conns;
  if (max_conns != 0 && open > static_cast<std::int64_t>(max_conns)) {
    server_.active_.sub(1);
    server_.over_limit_.inc();
    return;
  }
  if (server_.opts_.sndbuf > 0)
    ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &server_.opts_.sndbuf,
                 sizeof server_.opts_.sndbuf);
  const std::uint64_t id =
      server_.next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  const int raw = fd.get();
  auto conn = std::make_unique<Conn>(*this, std::move(fd), id);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = id;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, raw, &ev) != 0) {
    server_.active_.sub(1);  // conn (and fd) destroyed; never registered
    return;
  }
  server_.accepted_.inc();
  Conn* raw_conn = conn.get();
  conns_.emplace(id, std::move(conn));
  if (drain_started_) {
    // Raced in behind shutdown: drains immediately (and typically closes,
    // having nothing in flight).
    raw_conn->drain_now();
    if (raw_conn->dead() != Conn::kNone) close_conn(id, raw_conn->dead());
  }
}

void EventLoop::close_conn(std::uint64_t id, int reason) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, it->second->fd(), nullptr);
  conns_.erase(it);  // destroys Conn: closes the socket, drops the Session
  server_.closed_.inc();
  server_.active_.sub(1);
  if (reason == Conn::kEvictIdle) server_.evicted_idle_.inc();
  if (reason == Conn::kEvictSlow) server_.evicted_slow_.inc();
}

void EventLoop::process_mailbox() {
  std::vector<int> fds;
  std::vector<std::uint64_t> wakes;
  mailbox_->drain(fds, wakes);
  for (const int fd : fds) add_conn(fd);
  for (const std::uint64_t id : wakes) {
    if (const auto it = conns_.find(id); it != conns_.end()) {
      it->second->on_wake();
      if (it->second->dead() != Conn::kNone)
        close_conn(id, it->second->dead());
    }
    // else: completion for a connection that died mid-request — the
    // service already retired the work; nothing to deliver it to.
  }
}

void EventLoop::begin_drain() {
  if (drain_started_) return;
  drain_started_ = true;
  if (listener_.valid()) {
    ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, listener_.get(), nullptr);
    listener_.reset();  // stop accepting before draining what is left
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    it->second->drain_now();
    if (it->second->dead() != Conn::kNone) close_conn(id, it->second->dead());
  }
}

void EventLoop::sweep(Clock::time_point now) {
  std::vector<std::uint64_t> dead;
  for (const auto& [id, conn] : conns_) {
    conn->sweep(now);
    if (conn->dead() != Conn::kNone) dead.push_back(id);
  }
  for (const std::uint64_t id : dead)
    close_conn(id, conns_.at(id)->dead());
}

void EventLoop::force_close_all() {
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) close_conn(id, Conn::kForced);
}

// ---- Server --------------------------------------------------------------

Server::Server(svc::TuningService& service, ServerOptions opts)
    : service_(service), opts_(std::move(opts)) {
  if (opts_.loops == 0) opts_.loops = 1;
  Fd listener = listen_tcp(opts_.port, port_);
  loops_.reserve(opts_.loops);
  for (std::size_t i = 0; i < opts_.loops; ++i)
    loops_.push_back(std::make_unique<EventLoop>(*this, i));
  loops_[0]->adopt_listener(std::move(listener));
  for (const auto& loop : loops_) loop->start();
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  std::call_once(shutdown_once_, [this] {
    draining_.store(true, std::memory_order_relaxed);
    for (const auto& loop : loops_) loop->mailbox()->kick();

    // Drain phase: in-flight requests resolve (bounded by the service's
    // own lifecycle guarantee) and responses flush. Polling is fine here:
    // shutdown is not a hot path.
    const Clock::time_point deadline = Clock::now() + kDrainTimeout;
    while (active_.value() > 0 && Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));

    force_close_.store(true, std::memory_order_relaxed);
    for (const auto& loop : loops_) loop->mailbox()->kick();
    while (active_.value() > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));

    stopping_.store(true, std::memory_order_relaxed);
    for (const auto& loop : loops_) loop->mailbox()->kick();
    for (const auto& loop : loops_) loop->join();
  });
}

}  // namespace ilc::net
