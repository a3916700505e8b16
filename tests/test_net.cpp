// ilc::net tests: the TCP front-end's connection lifecycle. Round trips,
// pipelining order, module IR over a socket, the protocol line-length
// limit, half-close, slow-reader and idle eviction, graceful-shutdown
// drain, mid-request client disconnect, injected accept/read/write
// faults, the max_conns bound across several loops, the refusal of
// `save <path>` from TCP clients, and the leak invariant every scenario
// ends on: after shutdown, the server's net.conns_accepted ==
// net.conns_closed and net.conns_active == 0. Then the blocking transport:
// request_line through a Listener, and the deadline and stop flag that
// end a blocked read or write.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kb/knowledge_base.hpp"
#include "net/blocking.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"
#include "support/failpoint.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace {

using namespace ilc;
using Clock = std::chrono::steady_clock;

svc::TuningRequest make_request(const std::string& program,
                                unsigned budget = 2) {
  svc::TuningRequest req;
  req.program = program;
  req.budget = budget;
  return req;
}

/// Blocking loopback client with a receive timeout, so a hung server
/// fails the test instead of hanging it.
struct Client {
  int fd = -1;
  std::string buf;

  explicit Client(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    const timeval tv{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << std::strerror(errno);
  }

  ~Client() { close(); }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  void send_str(const std::string& s) {
    ASSERT_EQ(::send(fd, s.data(), s.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(s.size()));
  }

  void half_close() { ::shutdown(fd, SHUT_WR); }

  /// Next response line (terminator stripped); nullopt on EOF, reset, or
  /// timeout.
  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t pos = buf.find('\n');
      if (pos != std::string::npos) {
        std::string line = buf.substr(0, pos);
        buf.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// The server closed its end (clean EOF or reset) with no further data.
  bool at_eof() {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }
};

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds limit =
                    std::chrono::milliseconds(10000)) {
  const Clock::time_point deadline = Clock::now() + limit;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

std::uint64_t count(const net::Server& server, const char* name) {
  return server.metrics().counter_value(name);
}

std::int64_t open_conns(const net::Server& server) {
  return server.metrics().gauge_value("net.conns_active");
}

/// The invariant every test ends on: nothing leaked, nothing hung.
void expect_no_leaks(net::Server& server) {
  server.shutdown();
  const obs::RegistrySnapshot m = server.metrics();
  EXPECT_EQ(m.counter_value("net.conns_accepted"),
            m.counter_value("net.conns_closed"));
  EXPECT_EQ(m.gauge_value("net.conns_active"), 0);
}

struct FailpointGuard {
  ~FailpointGuard() { support::Failpoints::instance().unset_all(); }
};

TEST(Net, RoundTripAndQuitClosesConnection) {
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  c.send_str("tune fir budget=2\nmetrics\nquit\n");

  const auto tune = c.read_line();
  ASSERT_TRUE(tune.has_value());
  EXPECT_EQ(tune->rfind("ok program=fir", 0), 0u) << *tune;
  const auto metrics = c.read_line();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->rfind("metrics requests=1", 0), 0u) << *metrics;
  // `quit`: the server flushes and closes; nothing further arrives.
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

// A TCP client may not name files on the server: `save <path>` would
// write, or through its tmp-file rename replace, any file the server
// process can write. It is answered with `err` and writes nothing; bare
// `save` still syncs the configured store.
TEST(Net, SaveWithPathIsRefusedAndWritesNothing) {
  const std::string kb = "net_test_save_refused.kb";
  const std::string target =
      (std::filesystem::current_path() / "net_test_save_refused.csv").string();
  std::filesystem::remove_all(kb);
  std::filesystem::remove(target);
  {
    svc::TuningService service({.workers = 2, .kb_path = kb});
    net::Server server(service, {});
    Client c(server.port());
    c.send_str("tune fir budget=2\nsave " + target + "\nsave\nquit\n");

    const auto tune = c.read_line();
    ASSERT_TRUE(tune.has_value());
    EXPECT_EQ(tune->rfind("ok program=fir", 0), 0u) << *tune;
    const auto refused = c.read_line();
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->rfind("err ", 0), 0u) << *refused;
    const auto saved = c.read_line();
    ASSERT_TRUE(saved.has_value());
    EXPECT_EQ(*saved, "ok saved");
    EXPECT_TRUE(c.at_eof());
    expect_no_leaks(server);
  }
  EXPECT_FALSE(std::filesystem::exists(target));
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  std::filesystem::remove_all(kb);
}

TEST(Net, PipelinedResponsesComeBackInSubmissionOrder) {
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  // One write carrying many requests; the tunes resolve out of order on
  // the worker pool (different budgets, coalescing) but responses must
  // come back in request order.
  const std::vector<std::string> programs = {"fir",   "crc32", "fir",
                                             "rle",   "crc32", "fir"};
  std::string batch;
  for (const std::string& p : programs) batch += "tune " + p + " budget=2\n";
  batch += "metrics\n";
  c.send_str(batch);

  for (const std::string& p : programs) {
    const auto line = c.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("ok program=" + p + " ", 0), 0u) << *line;
  }
  const auto metrics = c.read_line();
  ASSERT_TRUE(metrics.has_value());
  // The metrics barrier ran after every preceding tune completed.
  EXPECT_NE(metrics->find(" queued=0 "), std::string::npos) << *metrics;
  EXPECT_NE(metrics->find(" in_flight=0 "), std::string::npos) << *metrics;
  expect_no_leaks(server);
}

TEST(Net, ModuleBodyIsNotParsedAsCommands) {
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  // The module body deliberately contains lines that would be commands;
  // if the framing were wrong they would produce extra responses.
  c.send_str(
      "module evil 2\n"
      "tune fir budget=1\n"
      "metrics\n"
      "tune evil budget=2\n"
      "quit\n");
  const auto line = c.read_line();
  ASSERT_TRUE(line.has_value());
  // The body is not valid IR — an err response proves it reached the
  // service as the module's IR text, not the command parser.
  EXPECT_EQ(line->rfind("err", 0), 0u) << *line;
  EXPECT_TRUE(c.at_eof());  // exactly one response, then the quit close
  expect_no_leaks(server);
}

TEST(Net, OversizedLineGetsErrorResponseAndClose) {
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  c.send_str(std::string(svc::kMaxRequestLine + 1, 'x') + "\n");
  const auto line = c.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("err request line too long", 0), 0u) << *line;
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, OversizedUnterminatedLineIsRejectedWithoutBuffering) {
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  // No terminator at all: the server must bound its read buffer rather
  // than accumulate forever.
  c.send_str(std::string(2 * svc::kMaxRequestLine, 'y'));
  const auto line = c.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("err request line too long", 0), 0u) << *line;
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, PipelinedRequestsBeforeOversizedLineStillAnswer) {
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  c.send_str("tune fir budget=2\n" +
             std::string(svc::kMaxRequestLine + 1, 'x') + "\n");
  const auto tune = c.read_line();
  ASSERT_TRUE(tune.has_value());
  EXPECT_EQ(tune->rfind("ok program=fir", 0), 0u) << *tune;
  const auto err = c.read_line();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->rfind("err request line too long", 0), 0u) << *err;
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, HalfCloseStillDeliversPendingResponses) {
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  c.send_str("tune fir budget=2\n");
  c.half_close();  // client finished sending; it still wants the answer
  const auto line = c.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("ok program=fir", 0), 0u) << *line;
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, SlowReaderIsEvicted) {
  svc::TuningService service({.workers = 2});
  net::ServerOptions opts;
  opts.max_wbuf = 2048;
  opts.write_stall_ms = 100;
  opts.sndbuf = 1;  // kernel clamps to its minimum — still tiny
  net::Server server(service, opts);
  Client c(server.port());
  // Hundreds of cheap synchronous responses, never read: the socket
  // buffer fills, the flush stalls, and the stall timer evicts.
  std::string batch;
  for (int i = 0; i < 2000; ++i) batch += "metrics\n";
  c.send_str(batch);
  ASSERT_TRUE(wait_until(
      [&] { return count(server, "net.conns_evicted_slow") >= 1; }))
      << "slow reader was not evicted";
  // The receive buffer still holds whatever flushed before the stall;
  // drain it down to the close the eviction produced.
  while (c.read_line().has_value()) {
  }
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, IdleConnectionIsEvicted) {
  svc::TuningService service({.workers = 2});
  net::ServerOptions opts;
  opts.idle_timeout_ms = 80;
  net::Server server(service, opts);
  Client c(server.port());  // connect, then say nothing
  ASSERT_TRUE(wait_until(
      [&] { return count(server, "net.conns_evicted_idle") >= 1; }))
      << "idle connection was not evicted";
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, GracefulShutdownDrainsInFlightRequests) {
  FailpointGuard guard;
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  // Hold the request in evaluation long enough for shutdown to begin
  // while it is genuinely in flight.
  support::Failpoints::instance().configure("svc.eval=delay:300*1");
  c.send_str("tune fir budget=2\n");
  ASSERT_TRUE(wait_until(
      [&] { return support::Failpoints::instance().hits("svc.eval") >= 1; }));

  server.shutdown();  // blocks: drain resolves the request and flushes

  const auto line = c.read_line();
  ASSERT_TRUE(line.has_value()) << "drain dropped an in-flight response";
  EXPECT_EQ(line->rfind("ok program=fir", 0), 0u) << *line;
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, ClientDisconnectMidRequestAbandonsCleanly) {
  FailpointGuard guard;
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  {
    Client c(server.port());
    support::Failpoints::instance().configure("svc.eval=delay:200*1");
    c.send_str("tune fir budget=2\n");
    ASSERT_TRUE(wait_until([&] {
      return support::Failpoints::instance().hits("svc.eval") >= 1;
    }));
    c.close();  // vanish mid-request
  }
  // The completion finds no session to deliver to; the connection must
  // close on its own — no hung worker, no leaked conn, bounded time.
  ASSERT_TRUE(wait_until([&] { return open_conns(server) == 0; }))
      << "abandoned connection never closed";
  expect_no_leaks(server);
  // And the service itself is still healthy.
  EXPECT_TRUE(service.tune(make_request("fir")).ok);
}

TEST(Net, AcceptFailpointDropsConnectionsThenRecovers) {
  FailpointGuard guard;
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  support::Failpoints::instance().configure("net.accept=error*2");
  {
    Client dropped1(server.port());
    Client dropped2(server.port());
    // The handshake completed (listen backlog) but the server dropped
    // them at accept: EOF with no response.
    dropped1.send_str("metrics\n");
    dropped2.send_str("metrics\n");
    EXPECT_TRUE(dropped1.at_eof());
    EXPECT_TRUE(dropped2.at_eof());
  }
  Client ok(server.port());
  ok.send_str("metrics\n");
  const auto line = ok.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("metrics ", 0), 0u) << *line;
  EXPECT_EQ(count(server, "net.accept_faults"), 2u);
  expect_no_leaks(server);
}

TEST(Net, ReadFailpointClosesConnection) {
  FailpointGuard guard;
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  support::Failpoints::instance().configure("net.read=error*1");
  c.send_str("metrics\n");
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, WriteFailpointShortWritesStillDeliverIntactResponses) {
  FailpointGuard guard;
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  Client c(server.port());
  // Every armed hit truncates a flush to a single byte, exercising the
  // partial-write bookkeeping; responses must still arrive byte-intact.
  support::Failpoints::instance().configure("net.write=error*200");
  c.send_str("metrics\nmetrics\nquit\n");
  for (int i = 0; i < 2; ++i) {
    const auto line = c.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("metrics requests=0 ", 0), 0u) << *line;
  }
  EXPECT_GE(support::Failpoints::instance().hits("net.write"), 1u);
  EXPECT_TRUE(c.at_eof());
  expect_no_leaks(server);
}

TEST(Net, MaxConnsRefusesBeyondLimit) {
  svc::TuningService service({.workers = 2});
  net::ServerOptions opts;
  opts.max_conns = 1;
  net::Server server(service, opts);
  Client keeper(server.port());
  keeper.send_str("metrics\n");
  ASSERT_TRUE(keeper.read_line().has_value());  // registered and serving
  Client refused(server.port());
  refused.send_str("metrics\n");
  EXPECT_TRUE(refused.at_eof());
  ASSERT_TRUE(
      wait_until([&] { return count(server, "net.conns_over_limit") >= 1; }));
  expect_no_leaks(server);
}

// max_conns bounds the population when several loops register at once.
// The first accept stalls while a burst of clients queues in the backlog;
// the acceptor then deals them round-robin to four loops in one sweep. A
// limit checked at accept, before the other loops had registered their
// share, let 3 to 5 of them in.
TEST(Net, MaxConnsHoldsAcrossLoops) {
  FailpointGuard guard;
  svc::TuningService service{svc::TuningService::Options{}};
  net::ServerOptions opts;
  opts.loops = 4;
  opts.max_conns = 2;
  constexpr std::uint64_t kClients = 8;
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(round);
    net::Server server(service, opts);
    support::Failpoints::instance().configure("net.accept=delay:300*1");
    std::deque<Client> clients;
    for (std::uint64_t i = 0; i < kClients; ++i)
      clients.emplace_back(server.port());
    ASSERT_TRUE(wait_until([&] {
      return count(server, "net.conns_accepted") +
                 count(server, "net.conns_over_limit") ==
             kClients;
    }));
    EXPECT_EQ(count(server, "net.conns_accepted"), 2u);
    EXPECT_EQ(open_conns(server), 2);
    expect_no_leaks(server);
  }
}

TEST(Net, ManyConnectionsNoLeaks) {
  svc::TuningService service({.workers = 2});
  net::Server server(service, {});
  service.tune(make_request("fir"));  // warm the cache
  for (int i = 0; i < 32; ++i) {
    Client c(server.port());
    c.send_str("tune fir budget=2\nquit\n");
    const auto line = c.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("ok program=fir", 0), 0u) << *line;
    EXPECT_TRUE(c.at_eof());
  }
  ASSERT_TRUE(wait_until([&] { return open_conns(server) == 0; }));
  EXPECT_EQ(count(server, "net.conns_accepted"), 32u);
  EXPECT_EQ(count(server, "net.responses"), 32u);
  expect_no_leaks(server);
}

// The shared Session state machine, driven directly (no sockets): the
// barrier semantics both transports rely on.
TEST(NetSession, BarriersWaitForPrecedingSlots) {
  FailpointGuard guard;
  svc::TuningService service({.workers = 2});
  const std::shared_ptr<net::Session> session =
      net::Session::create(service, {});
  support::Failpoints::instance().configure("svc.eval=delay:100*1");
  session->feed_line("tune fir budget=2");
  session->feed_line("metrics");  // must observe the completed tune
  EXPECT_TRUE(session->barrier_pending());
  std::string out;
  EXPECT_EQ(session->drain_ready(out), 0u);  // nothing ready yet
  session->wait_all();
  EXPECT_FALSE(session->barrier_pending());
  std::vector<net::Session::Done> done;
  EXPECT_EQ(session->drain_ready(out, &done), 2u);
  EXPECT_EQ(out.rfind("ok program=fir", 0), 0u) << out;
  EXPECT_NE(out.find("\nmetrics requests=1 "), std::string::npos) << out;
  EXPECT_NE(out.find(" in_flight=0 "), std::string::npos) << out;
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].is_tune);
  EXPECT_FALSE(done[1].is_tune);
}

// The console (stdin or a script file) is driven by whoever started the
// server: its `save <path>` still exports a CSV knowledge base there.
TEST(NetSession, ConsoleSaveWithPathWritesAReadableCsv) {
  const std::string path = "net_test_console_save.csv";
  std::filesystem::remove(path);
  svc::TuningService service({.workers = 2});
  const std::shared_ptr<net::Session> session = net::Session::create(
      service, {}, net::Session::Origin::Console);
  session->feed_line("tune fir budget=2");
  session->feed_line("save " + path);
  session->wait_all();
  std::string out;
  EXPECT_EQ(session->drain_ready(out), 2u);
  EXPECT_NE(out.find("\nok saved\n"), std::string::npos) << out;
  const auto base = kb::KnowledgeBase::load(path);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->size(), 2u);  // the fir answer: best and -O0 baseline
  std::filesystem::remove(path);
}

TEST(NetSession, QuitStopsProcessing) {
  svc::TuningService service({.workers = 2});
  const std::shared_ptr<net::Session> session =
      net::Session::create(service, {});
  session->feed_line("quit");
  EXPECT_TRUE(session->quit_requested());
  EXPECT_TRUE(session->idle());
}

// --- the blocking transport ----------------------------------------------

TEST(NetBlocking, RequestLineRoundTripsThroughTheListener) {
  auto listener = net::Listener::start(
      0, [](net::Fd fd, const std::atomic<bool>& stop) {
        net::LineReader reader(fd.get());
        std::string line;
        std::string err;
        while (!stop.load()) {
          if (!reader.next(line, 20, &err)) {
            if (err == "read timeout") continue;
            return;
          }
          if (!net::write_all(fd.get(), "echo " + line + "\n", 1000)) return;
        }
      });
  ASSERT_TRUE(listener);
  const std::uint16_t port = listener->port();
  std::string reply;
  std::string err;
  ASSERT_TRUE(net::request_line(port, "hello", 2000, reply, &err)) << err;
  EXPECT_EQ(reply, "echo hello");
  // A fresh connection per exchange; a supplied terminator is kept as is.
  ASSERT_TRUE(net::request_line(port, "again\n", 2000, reply, &err)) << err;
  EXPECT_EQ(reply, "echo again");

  listener->stop();
  EXPECT_FALSE(net::request_line(port, "late", 200, reply, &err));
}

TEST(NetBlocking, SilentPeerCostsTheDeadlineNotAHang) {
  // The session accepts and never answers; only stop() ends it.
  auto listener = net::Listener::start(
      0, [](net::Fd, const std::atomic<bool>& stop) {
        while (!stop.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      });
  ASSERT_TRUE(listener);
  std::string reply;
  std::string err;
  const Clock::time_point t0 = Clock::now();
  EXPECT_FALSE(net::request_line(listener->port(), "ping", 100, reply, &err));
  EXPECT_EQ(err, "read timeout");
  EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(90));
  listener->stop();  // returns: the session polls the flag
}

TEST(NetBlocking, WriteAllEndsOnItsDeadlineOrOnStop) {
  // A peer that never reads, and more bytes than the socket buffers hold.
  std::atomic<int> timed_out{-1};
  std::atomic<int> stopped{-1};
  auto listener = net::Listener::start(
      0, [&](net::Fd fd, const std::atomic<bool>& stop) {
        const std::string big(32u << 20, 'x');
        std::string err;
        // Control-plane shape: the deadline ends the write.
        timed_out = !net::write_all(fd.get(), big, 50, nullptr, &err) &&
                    err == "write timeout";
        // Shipping shape: no deadline, so only stop() ends the write.
        stopped =
            !net::write_all(fd.get(), big, net::kNoDeadline, &stop, &err) &&
            err == "stopped";
      });
  ASSERT_TRUE(listener);
  std::string err;
  net::Fd peer = net::connect_within(listener->port(), 2000, &err);
  ASSERT_TRUE(peer.valid()) << err;
  ASSERT_TRUE(wait_until([&] { return timed_out.load() != -1; }));
  EXPECT_EQ(timed_out.load(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(stopped.load(), -1);  // still waiting on the peer
  listener->stop();
  EXPECT_EQ(stopped.load(), 1);
}

}  // namespace
