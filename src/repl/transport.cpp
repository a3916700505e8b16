#include "repl/transport.hpp"

#include <chrono>

#include "support/failpoint.hpp"

namespace ilc::repl {

namespace {

/// How often a ship session re-reads the leader's WAL for new frames.
constexpr int kPollMs = 20;
/// ShipClient: backoff between connection attempts.
constexpr int kReconnectMs = 50;
/// ShipClient: connect timeout and per-wait read poll, which bounds how
/// long stop() waits for the client.
constexpr int kIoTimeoutMs = 200;

}  // namespace

// ---- ShipServer ----------------------------------------------------------

std::unique_ptr<ShipServer> ShipServer::start(std::string dir,
                                              std::uint16_t port) {
  auto s = std::unique_ptr<ShipServer>(new ShipServer());
  s->dir_ = std::move(dir);
  const ShipServer* self = s.get();
  s->listener_ = net::Listener::start(
      port, [self](net::Fd fd, const std::atomic<bool>& stop) {
        self->session(std::move(fd), stop);
      });
  if (!s->listener_) return nullptr;
  return s;
}

void ShipServer::session(net::Fd fd, const std::atomic<bool>& stop) const {
  // Phase 1: read the follower's Hello.
  MsgReader reader;
  Msg hello;
  char buf[4096];
  for (;;) {
    if (stop.load()) return;
    const MsgReader::Status st = reader.next(hello);
    if (st == MsgReader::Status::Ok) break;
    if (st == MsgReader::Status::Corrupt) return;
    if (!net::wait_readable(fd.get(), kPollMs)) continue;
    const net::IoResult r = net::read_some(fd.get(), buf, sizeof buf);
    if (r.status == net::IoStatus::Ok)
      reader.feed({buf, r.bytes});
    else if (r.status != net::IoStatus::WouldBlock)
      return;
  }

  // Phase 2: position the session (or reject it and hang up).
  ShipSource src(dir_);
  std::string out;
  std::string why;
  if (!src.handshake(hello, out, &why)) {
    net::write_all(fd.get(), out, net::kNoDeadline, &stop);
    return;
  }

  // Phase 3: stream until the follower drops or we stop. Writes have no
  // deadline: a slow follower is waited on, because cutting a large
  // snapshot short would only make it start over.
  while (!stop.load()) {
    out.clear();
    if (!src.poll(out)) return;
    if (!out.empty()) {
      // Injected torn ship: cut this batch mid-message and hang up. The
      // follower's MsgReader is left holding an undecodable tail it
      // drops on reconnect — no partial frame ever reaches its store.
      if (out.size() > 8 && support::failpoint("repl.ship")) {
        net::write_all(fd.get(),
                       std::string_view(out).substr(0, out.size() / 2),
                       net::kNoDeadline, &stop);
        return;
      }
      if (!net::write_all(fd.get(), out, net::kNoDeadline, &stop)) return;
    }
    // Idle wait doubles as peer-death detection: the follower never
    // speaks after its Hello, so readability means EOF or an error.
    if (net::wait_readable(fd.get(), kPollMs)) {
      const net::IoResult r = net::read_some(fd.get(), buf, sizeof buf);
      if (r.status == net::IoStatus::Eof ||
          r.status == net::IoStatus::Error)
        return;
    }
  }
}

// ---- ShipClient ----------------------------------------------------------

std::unique_ptr<ShipClient> ShipClient::start(Applier& applier,
                                              std::uint16_t leader_port) {
  auto c = std::unique_ptr<ShipClient>(new ShipClient());
  c->applier_ = &applier;
  c->port_ = leader_port;
  c->thread_ = std::thread(&ShipClient::run, c.get());
  return c;
}

ShipClient::~ShipClient() { stop(); }

void ShipClient::stop() {
  stop_.store(true);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool ShipClient::sleep_for_ms(int ms) {
  std::unique_lock<std::mutex> lk(cv_mu_);
  cv_.wait_for(lk, std::chrono::milliseconds(ms),
               [this] { return stop_.load(); });
  return !stop_.load();
}

void ShipClient::run() {
  while (!stop_.load()) {
    if (applier_->rejected()) {
      stopped_.store(true);
      return;
    }
    net::Fd fd = net::connect_within(port_, kIoTimeoutMs);
    if (fd.valid()) {
      std::string h;
      encode_msg(h, applier_->hello());
      if (net::write_all(fd.get(), h, net::kNoDeadline, &stop_)) {
        connects_.fetch_add(1);
        if (session_once(fd.get())) {
          stopped_.store(true);
          return;
        }
      }
    }
    if (!sleep_for_ms(kReconnectMs)) return;
  }
}

bool ShipClient::session_once(int fd) {
  MsgReader reader;
  char buf[65536];
  while (!stop_.load()) {
    if (!net::wait_readable(fd, kIoTimeoutMs)) continue;
    const net::IoResult r = net::read_some(fd, buf, sizeof buf);
    if (r.status == net::IoStatus::WouldBlock) continue;
    if (r.status != net::IoStatus::Ok) return false;  // connection lost
    reader.feed({buf, r.bytes});
    Msg m;
    for (;;) {
      const MsgReader::Status st = reader.next(m);
      if (st == MsgReader::Status::NeedMore) break;
      if (st == MsgReader::Status::Corrupt) return false;
      if (!applier_->apply(m)) {
        // Split-brain verdicts are final; anything else (a gap after a
        // missed batch, a stale replay) is repositioned by the next
        // handshake.
        return applier_->rejected();
      }
    }
  }
  return false;
}

}  // namespace ilc::repl
