#include "net/blocking.hpp"

#include <chrono>
#include <exception>
#include <system_error>

namespace ilc::net {

namespace {

using Clock = std::chrono::steady_clock;

/// How often a wait without a deadline wakes to check a stop flag; also
/// the acceptor's poll, which bounds how long stop() waits for it.
constexpr int kPollMs = 50;

Clock::time_point deadline_after(int timeout_ms) {
  return timeout_ms < 0
             ? Clock::time_point::max()
             : Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/// Milliseconds left before `deadline`: -1 when there is none, 0 once it
/// has passed.
int remaining_ms(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

void set_err(std::string* err, const char* what) {
  if (err) *err = what;
}

}  // namespace

Fd connect_within(std::uint16_t port, int timeout_ms, std::string* err) {
  Fd fd = connect_tcp(port);
  if (!fd.valid()) {
    set_err(err, "connect refused");
    return {};
  }
  if (!wait_writable(fd.get(), timeout_ms)) {
    set_err(err, "connect timeout");
    return {};
  }
  return fd;
}

bool write_all(int fd, std::string_view data, int timeout_ms,
               const std::atomic<bool>* stop, std::string* err) {
  const Clock::time_point deadline = deadline_after(timeout_ms);
  std::size_t sent = 0;
  while (sent < data.size()) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      set_err(err, "stopped");
      return false;
    }
    const IoResult r = write_some(fd, data.data() + sent, data.size() - sent);
    switch (r.status) {
      case IoStatus::Ok:
        sent += r.bytes;
        break;
      case IoStatus::WouldBlock: {
        int wait = remaining_ms(deadline);
        if (wait == 0) {
          set_err(err, "write timeout");
          return false;
        }
        if (stop != nullptr && (wait < 0 || wait > kPollMs)) wait = kPollMs;
        wait_writable(fd, wait);
        break;
      }
      default:
        set_err(err, "write error");
        return false;
    }
  }
  return true;
}

bool LineReader::next(std::string& line, int timeout_ms, std::string* err) {
  const Clock::time_point deadline = deadline_after(timeout_ms);
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const IoResult r = read_some(fd_, chunk, sizeof chunk);
    switch (r.status) {
      case IoStatus::Ok:
        buf_.append(chunk, r.bytes);
        break;
      case IoStatus::WouldBlock: {
        const int left = remaining_ms(deadline);
        if (left == 0 || !wait_readable(fd_, left)) {
          set_err(err, "read timeout");
          return false;
        }
        break;
      }
      case IoStatus::Eof:
        set_err(err, "peer closed");
        return false;
      default:
        set_err(err, "read error");
        return false;
    }
  }
}

bool request_line(std::uint16_t port, std::string request, int timeout_ms,
                  std::string& reply, std::string* err) {
  if (request.empty() || request.back() != '\n') request += '\n';
  Fd fd = connect_within(port, timeout_ms, err);
  if (!fd.valid()) return false;
  if (!write_all(fd.get(), request, timeout_ms, nullptr, err)) return false;
  LineReader reader(fd.get());
  return reader.next(reply, timeout_ms, err);
}

// ---- Listener -------------------------------------------------------------

std::unique_ptr<Listener> Listener::start(std::uint16_t port,
                                          SessionBody session) {
  auto l = std::unique_ptr<Listener>(new Listener());
  l->session_ = std::move(session);
  try {
    l->listen_ = listen_tcp(port, l->port_);
  } catch (const std::exception&) {
    return nullptr;
  }
  l->acceptor_ = std::thread(&Listener::accept_loop, l.get());
  return l;
}

Listener::~Listener() { stop(); }

void Listener::stop() {
  if (stop_.exchange(true)) return;
  if (acceptor_.joinable()) acceptor_.join();
  listen_.reset();  // refuse new connections while the sessions wind down
  for (Worker& w : workers_) w.thread.join();
  workers_.clear();
}

void Listener::accept_loop() {
  while (!stop_.load()) {
    reap();
    if (!wait_readable(listen_.get(), kPollMs)) continue;
    Fd conn = accept_conn(listen_.get(), nullptr);
    if (conn.valid()) spawn(std::move(conn));
  }
}

void Listener::spawn(Fd conn) {
  Worker& w = workers_.emplace_back();
  try {
    w.thread = std::thread([this, &w, fd = std::move(conn)]() mutable {
      session_(std::move(fd), stop_);
      w.done.store(true, std::memory_order_release);
    });
  } catch (const std::system_error&) {
    // No thread to be had: drop this connection (its fd closed with the
    // lambda) and keep serving, rather than take the process down.
    workers_.pop_back();
  }
}

void Listener::reap() {
  for (auto it = workers_.begin(); it != workers_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = workers_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ilc::net
