// Network load behaviour of the TCP front-end: an in-process net::Server
// over a warm tuning service, driven by a single-threaded epoll client
// herd — thousands of concurrent loopback connections, pipelined
// requests, an open-loop send side that never waits for responses, plus
// a fault phase (injected accept drops, forced short writes, clients
// that vanish mid-request). Reports client-observed p50/p95/p99
// read-to-write latency and server-side reject/shed/timeout rates.
//
// The gate — enforced in --smoke and full runs alike — extends the
// service's lifecycle guarantee across the wire: the steady phase really
// held all its connections open at once (the smoke floor is >= 1000
// concurrent, proven by a connect-all barrier against the server's
// active gauge), every client got every response it was owed (zero hung
// clients), injected faults were observed, and after shutdown the server
// leaked nothing: accepted == closed, active == 0.
//
//   ILC_SVC_NETLOAD_CONNS  steady-phase connections (default 2000; smoke 1100)
//   ILC_SVC_NETLOAD_REQS   pipelined requests per connection (default 4;
//                          smoke 3)
#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "support/failpoint.hpp"
#include "support/table.hpp"
#include "svc/service.hpp"

using namespace ilc;

namespace {

using Clock = std::chrono::steady_clock;

const char* const kPrograms[] = {"fir", "crc32", "rle", "dotprod"};
constexpr std::size_t kNPrograms = sizeof kPrograms / sizeof *kPrograms;

/// One loopback client connection in the herd.
struct CConn {
  enum class State {
    Connecting,  // nonblocking connect in flight
    Running,     // sending/awaiting pipelined responses
    Draining,    // all responses in; quit flushed; awaiting server close
    Done,        // clean close after every owed response
    Dropped,     // server closed early (injected accept fault)
    Aborted      // we hung up on purpose mid-request
  };

  net::Fd fd;
  State state = State::Connecting;
  bool aborter = false;
  bool quit_queued = false;
  std::uint32_t interest = 0;  // current epoll mask
  std::string inbuf;
  std::string outbuf;
  std::size_t outoff = 0;
  std::vector<Clock::time_point> send_times;  // per pipelined request
  std::size_t next_resp = 0;
  std::size_t expected = 0;

  bool terminal() const {
    return state == State::Done || state == State::Dropped ||
           state == State::Aborted;
  }
};

struct PhaseResult {
  std::string name;
  std::size_t conns = 0;
  std::uint64_t responses = 0;
  std::uint64_t hung = 0;     // conns not terminal by the deadline
  std::uint64_t dropped = 0;  // closed by the server before completion
  std::uint64_t aborted = 0;
  std::uint64_t errs = 0;        // `err` response lines
  std::int64_t peak_active = 0;  // server-side concurrent connections
  double wall_s = 0.0;
  std::vector<std::uint64_t> latencies_us;

  std::uint64_t pct(double p) const {
    if (latencies_us.empty()) return 0;
    const std::size_t idx = std::min(
        latencies_us.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(latencies_us.size())));
    return latencies_us[idx];
  }
};

/// Connections the server holds open right now.
std::int64_t open_conns(const net::Server& server) {
  return server.metrics().gauge_value("net.conns_active");
}

/// Drives `total` connections against `server` from one epoll loop; see
/// main() for the phase shapes. Every connection pipelines `reqs` tune
/// commands in one burst and must read exactly that many response lines
/// back; the last `aborters` of them instead send one request and vanish
/// without reading — the server must shrug. With `barrier`, no request
/// is sent until every connection is registered server-side, proving the
/// concurrency is simultaneous rather than a rolling window.
PhaseResult run_phase(const std::string& name, net::Server& server,
                      std::size_t total, std::size_t reqs,
                      std::size_t aborters, bool barrier) {
  PhaseResult out;
  out.name = name;
  out.conns = total;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + std::chrono::seconds(180);

  const net::Fd ep(::epoll_create1(EPOLL_CLOEXEC));
  std::vector<CConn> conns(total);
  const std::int64_t active_before = open_conns(server);
  std::size_t terminal = 0;

  auto set_interest = [&](std::size_t i, std::uint32_t mask) {
    CConn& c = conns[i];
    if (!c.fd.valid() || mask == c.interest) return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = i;
    ::epoll_ctl(ep.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
    c.interest = mask;
  };

  auto finish = [&](std::size_t i, CConn::State state) {
    CConn& c = conns[i];
    c.state = state;
    c.fd.reset();  // auto-removes from epoll
    ++terminal;
    if (state == CConn::State::Dropped) ++out.dropped;
    if (state == CConn::State::Aborted) ++out.aborted;
  };

  for (std::size_t i = 0; i < total; ++i) {
    CConn& c = conns[i];
    c.fd = net::connect_tcp(server.port());
    if (!c.fd.valid()) {
      std::fprintf(stderr, "connect %zu failed: %s\n", i,
                   std::strerror(errno));
      c.state = CConn::State::Dropped;
      ++out.dropped;
      ++terminal;
      continue;
    }
    c.aborter = i >= total - aborters;
    c.expected = c.aborter ? 0 : reqs;
    for (std::size_t r = 0; r < (c.aborter ? 1u : reqs); ++r)
      c.outbuf +=
          std::string("tune ") + kPrograms[(i + r) % kNPrograms] +
          " budget=2\n";
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP;  // EPOLLOUT: connect done
    ev.data.u64 = i;
    ::epoll_ctl(ep.get(), EPOLL_CTL_ADD, c.fd.get(), &ev);
    c.interest = ev.events;
  }

  // The concurrency barrier: every surviving connection registered on the
  // server before the first request byte.
  bool go = !barrier;
  auto barrier_reached = [&] {
    return open_conns(server) - active_before >=
           static_cast<std::int64_t>(total - out.dropped);
  };

  std::array<epoll_event, 256> events;
  while (terminal < total && Clock::now() < deadline) {
    if (!go && barrier_reached()) {
      go = true;
      out.peak_active = open_conns(server) - active_before;
      for (std::size_t i = 0; i < total; ++i)
        if (!conns[i].terminal() && conns[i].outoff < conns[i].outbuf.size())
          set_interest(i, EPOLLIN | EPOLLOUT | EPOLLRDHUP);
    }
    const int n = ::epoll_wait(ep.get(), events.data(),
                               static_cast<int>(events.size()), 20);
    if (n < 0 && errno != EINTR) break;
    for (int e = 0; e < n; ++e) {
      const std::size_t i = events[e].data.u64;
      CConn& c = conns[i];
      if (c.terminal()) continue;
      const std::uint32_t ev = events[e].events;

      if (c.state == CConn::State::Connecting && (ev & EPOLLOUT)) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(c.fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          finish(i, CConn::State::Dropped);
          continue;
        }
        c.state = CConn::State::Running;
        if (!go) set_interest(i, EPOLLIN | EPOLLRDHUP);
      }

      // Send side: open loop — flush whenever the barrier is down and the
      // socket accepts bytes, never waiting for responses.
      if (go && !c.terminal() && c.state != CConn::State::Connecting &&
          c.outoff < c.outbuf.size()) {
        while (c.outoff < c.outbuf.size()) {
          const net::IoResult r =
              net::write_some(c.fd.get(), c.outbuf.data() + c.outoff,
                              c.outbuf.size() - c.outoff);
          if (r.status == net::IoStatus::WouldBlock) break;
          if (r.status != net::IoStatus::Ok) {
            finish(i, CConn::State::Dropped);
            break;
          }
          c.outoff += r.bytes;
        }
        if (c.terminal()) continue;
        if (c.outoff >= c.outbuf.size()) {
          if (c.aborter) {
            // Vanish mid-request: the response is in flight server-side.
            finish(i, CConn::State::Aborted);
            continue;
          }
          if (c.quit_queued) {
            c.state = CConn::State::Draining;
            set_interest(i, EPOLLIN | EPOLLRDHUP);
          } else {
            if (c.send_times.empty())
              c.send_times.assign(c.expected, Clock::now());
            set_interest(i, EPOLLIN | EPOLLRDHUP);
          }
        }
      }

      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        char buf[8192];
        for (;;) {
          const net::IoResult r = net::read_some(c.fd.get(), buf, sizeof buf);
          if (r.status == net::IoStatus::WouldBlock) break;
          if (r.status == net::IoStatus::Ok) {
            c.inbuf.append(buf, r.bytes);
            continue;
          }
          // EOF or reset: clean only once every owed response arrived.
          const bool clean = c.next_resp == c.expected && !c.aborter;
          finish(i, clean ? CConn::State::Done : CConn::State::Dropped);
          break;
        }
        if (c.terminal()) continue;
        std::size_t pos;
        while ((pos = c.inbuf.find('\n')) != std::string::npos) {
          const Clock::time_point now = Clock::now();
          const std::string line = c.inbuf.substr(0, pos);
          c.inbuf.erase(0, pos + 1);
          if (c.next_resp < c.send_times.size())
            out.latencies_us.push_back(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - c.send_times[c.next_resp])
                    .count()));
          if (line.rfind("err", 0) == 0) ++out.errs;
          ++out.responses;
          ++c.next_resp;
          if (c.next_resp == c.expected && !c.quit_queued) {
            // All responses in: say goodbye. Through the buffered path —
            // an armed net.write failpoint can truncate this write too.
            c.outbuf = "quit\n";
            c.outoff = 0;
            c.quit_queued = true;
            set_interest(i, EPOLLIN | EPOLLOUT | EPOLLRDHUP);
          }
        }
      }
    }
  }

  out.hung = static_cast<std::uint64_t>(total - terminal);
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::sort(out.latencies_us.begin(), out.latencies_us.end());
  return out;
}

std::string phase_json(const PhaseResult& p) {
  bench::Json j;
  j.integer("conns", p.conns)
      .integer("responses", p.responses)
      .integer("hung", p.hung)
      .integer("dropped", p.dropped)
      .integer("aborted", p.aborted)
      .integer("errs", p.errs)
      .integer("peak_active",
               static_cast<std::uint64_t>(p.peak_active > 0 ? p.peak_active
                                                            : 0))
      .integer("p50_us", p.pct(0.50))
      .integer("p95_us", p.pct(0.95))
      .integer("p99_us", p.pct(0.99))
      .number("wall_s", p.wall_s);
  return j.render(2);
}

svc::TuningRequest warm_request(const char* program) {
  svc::TuningRequest req;
  req.program = program;
  req.budget = 2;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  std::size_t conns = bench::env_unsigned("ILC_SVC_NETLOAD_CONNS",
                                          args.smoke ? 1100 : 2000);
  const std::size_t reqs =
      bench::env_unsigned("ILC_SVC_NETLOAD_REQS", args.smoke ? 3 : 4);

  // Client and server fds share this one process.
  const std::size_t capacity = net::ensure_fd_capacity(2 * conns + 256);
  if (capacity < 2 * conns + 256) {
    conns = (capacity - 256) / 2;
    std::fprintf(stderr, "fd limit %zu: scaling to %zu connections\n",
                 capacity, conns);
  }

  svc::TuningService::Options opts;
  opts.workers = 2;
  opts.kb_path = "";  // in-memory: transport dynamics, not disk speed
  opts.autosave = false;
  opts.max_queue = 64;
  svc::TuningService service(opts);
  // Warm every program the herd asks for: the phases measure transport
  // latency under concurrency, not search time.
  for (const char* p : kPrograms) service.tune(warm_request(p));

  net::ServerOptions net_opts;
  net_opts.loops = 1;
  net_opts.write_stall_ms = 30000;
  net::Server server(service, net_opts);

  std::printf(
      "TCP front-end load: %zu connections x %zu pipelined requests "
      "(open loop, connect-all barrier), then a fault phase\n\n",
      conns, reqs);

  // Phase 1: the full herd at once, every connection held open across
  // the barrier, pipelined warm requests.
  const PhaseResult steady = run_phase("steady", server, conns, reqs,
                                       /*aborters=*/0, /*barrier=*/true);

  // Phase 2: faults. A slice of accepts is dropped on the floor, writes
  // are truncated to one byte while armed, and the last quarter of the
  // clients hang up mid-request without reading their responses.
  const std::size_t fault_conns = std::max<std::size_t>(conns / 8, 64);
  const std::size_t accept_drops = 16;
  const std::uint64_t faults_before =
      server.metrics().counter_value("net.accept_faults");
  support::Failpoints::instance().configure(
      "net.accept=error*" + std::to_string(accept_drops) +
      ";net.write=error*4000");
  const PhaseResult faults = run_phase("faults", server, fault_conns, reqs,
                                       /*aborters=*/fault_conns / 4,
                                       /*barrier=*/false);
  const std::uint64_t short_writes =
      support::Failpoints::instance().hits("net.write");
  support::Failpoints::instance().unset_all();

  // Abandoned connections must unwind on their own, not linger.
  const Clock::time_point settle = Clock::now() + std::chrono::seconds(60);
  while (open_conns(server) > 0 && Clock::now() < settle)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  server.shutdown();
  const obs::RegistrySnapshot s = server.metrics();
  const std::uint64_t accepted = s.counter_value("net.conns_accepted");
  const std::uint64_t closed = s.counter_value("net.conns_closed");
  const std::int64_t active = s.gauge_value("net.conns_active");
  const std::uint64_t accept_faults = s.counter_value("net.accept_faults");

  support::Table table({"phase", "conns", "responses", "hung", "dropped",
                        "p50 us", "p95 us", "p99 us", "wall s"});
  for (const PhaseResult* p : {&steady, &faults}) {
    char wall[32];
    std::snprintf(wall, sizeof wall, "%.2f", p->wall_s);
    table.add_row({p->name, std::to_string(p->conns),
                   std::to_string(p->responses), std::to_string(p->hung),
                   std::to_string(p->dropped), std::to_string(p->pct(0.50)),
                   std::to_string(p->pct(0.95)), std::to_string(p->pct(0.99)),
                   wall});
  }
  table.print(std::cout);

  const obs::RegistrySnapshot m = service.metrics();
  const auto n = [](const obs::RegistrySnapshot& snap, const char* name) {
    return static_cast<unsigned long long>(snap.counter_value(name));
  };
  std::printf(
      "\nserver: accepted=%llu closed=%llu active=%lld accept_faults=%llu "
      "evicted=%llu bytes_in=%llu bytes_out=%llu\n"
      "service: requests=%llu rejected=%llu shed=%llu timed_out=%llu\n",
      n(s, "net.conns_accepted"), n(s, "net.conns_closed"),
      static_cast<long long>(active), n(s, "net.accept_faults"),
      n(s, "net.conns_evicted_idle") + n(s, "net.conns_evicted_slow"),
      n(s, "net.bytes_in"), n(s, "net.bytes_out"), n(m, "svc.requests"),
      n(m, "svc.rejected"), n(m, "svc.shed"), n(m, "svc.timed_out"));

  // The gate. Every clause is a bug if violated.
  bool ok = true;
  auto require = [&ok](bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "FAIL: %s\n", what);
    ok = ok && cond;
  };
  require(steady.peak_active >=
              static_cast<std::int64_t>(std::min<std::size_t>(conns, 1000)),
          "steady phase held >= 1000 concurrent connections");
  require(steady.hung == 0 && faults.hung == 0,
          "every client reached a terminal state (zero hung clients)");
  require(steady.dropped == 0,
          "no connection was dropped without injected faults");
  require(steady.responses == static_cast<std::uint64_t>(steady.conns) * reqs,
          "every pipelined request was answered");
  require(steady.errs == 0 && faults.errs == 0,
          "no request produced an error response");
  require(accept_faults - faults_before == accept_drops,
          "fault phase dropped exactly the injected accepts");
  require(faults.dropped <= accept_drops,
          "only injected faults dropped connections");
  require(short_writes > 0, "fault phase exercised short writes");
  require(faults.aborted > 0, "fault phase aborted clients mid-request");
  require(active == 0 && accepted == closed,
          "zero leaked connections after shutdown");

  if (!args.json_path.empty()) {
    bench::Json doc;
    doc.string("bench", "svc_netload")
        .boolean("smoke", args.smoke)
        .integer("conns", conns)
        .integer("reqs_per_conn", reqs)
        .raw("steady", phase_json(steady))
        .raw("faults", phase_json(faults))
        .integer("accepted", accepted)
        .integer("closed", closed)
        .integer("accept_faults", accept_faults)
        .integer("short_writes", short_writes)
        .boolean("ok", ok);
    if (!bench::write_json(args.json_path, std::move(doc))) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
  }

  std::printf("\n%s\n", ok ? "PASS: zero hung clients, zero leaked "
                             "connections, faults all observed"
                           : "FAIL: see stderr");
  return ok ? 0 : 1;
}
