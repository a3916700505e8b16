// tuning_server — drive svc::TuningService over the line protocol from
// stdin, a scripted request file, or a TCP socket. The persistent serving
// mode of the intelligent compiler: results accumulate in the knowledge
// base across invocations, so re-running a script answers instantly from
// the KB.
//
//   $ ./tuning_server --kb my.kb --script requests.txt
//   $ echo "tune fir budget=10" | ./tuning_server --kb my.kb
//   $ ./tuning_server --kb my.kb --listen 7070   # epoll TCP front-end
//
// Sharded / replicated serving (ilc::repl):
//
//   # shard 0 of 2, leader, shipping its WAL to followers on port 7100:
//   $ ./tuning_server --kb shard0.kb --listen 7070 --shard-of 0/2 --ship 7100
//   # a read-only follower of that leader, serving replicated warm hits:
//   $ ./tuning_server --kb replica0.kb --listen 7071 --shard-of 0/2 \
//                     --follower-of 7100
//
// Tune commands are submitted asynchronously as they are read; responses
// are printed in submission order (the net::Session slot FIFO), so a
// script full of tunes exercises the scheduler's full concurrency. Both
// stdin and TCP modes run the same net::Session request-handling loop —
// only the byte transport differs. In TCP mode SIGINT/SIGTERM trigger a
// graceful shutdown: stop accepting, drain in-flight requests, flush.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "cluster/registry.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "obs/trace.hpp"
#include "repl/applier.hpp"
#include "repl/transport.hpp"
#include "support/failpoint.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

using namespace ilc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--queue-depth N] [--kb path] "
               "[--script file|-] [--trace out.json] [--failpoints spec]\n"
               "          [--listen port] [--loops N] [--max-conns N] "
               "[--idle-timeout-ms N]\n"
               "  --queue-depth N   bounded admission: max queued jobs "
               "(0 = unbounded; overload sheds/rejects)\n"
               "  --seed-kb path    legacy-CSV KB whose sequence records "
               "build the clustered seed bank; requests opt in\n"
               "                    with seeding=on (and objective=pareto "
               "tracks the (cycles, size) front)\n"
               "  --failpoints spec fault injection, e.g. "
               "\"svc.persist=error*3\" (also via ILC_FAILPOINTS)\n"
               "  --listen port     serve the protocol over TCP on "
               "127.0.0.1:port (0 = ephemeral) instead of stdin\n"
               "  --shard-of i/N    own only fingerprints with fp %% N == i; "
               "other requests answer \"wrong shard\"\n"
               "  --ship port       leader: ship the KB's WAL to replication "
               "followers on 127.0.0.1:port (0 = ephemeral)\n"
               "  --follower-of P   follower: replicate from the leader "
               "shipping on port P (or 127.0.0.1:P) into --kb,\n"
               "                    and serve it read-only (warm hits only)\n"
               "  --registry port   also serve the cluster registry (the "
               "shard map) on 127.0.0.1:port (0 = ephemeral)\n"
               "  --join host:port  announce this node to the registry at "
               "host:port once listening (leader by default,\n"
               "                    follower with --follower-of); replaces "
               "hand-wired topology on the client side\n",
               argv0);
  return 2;
}

/// When --trace was given, drain every recorded span to `path` as Chrome
/// trace_event JSON on exit (constructed before the service so the trace
/// survives even an early return).
struct TraceDump {
  std::string path;
  ~TraceDump() {
    if (path.empty()) return;
    const std::string trace = obs::Tracer::drain_chrome_trace();
    if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
      std::fwrite(trace.data(), 1, trace.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    }
  }
};

void print_drained(net::Session& session) {
  std::string out;
  if (session.drain_ready(out) > 0) {
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fflush(stdout);
  }
}

/// The stdin/script transport: feed lines, print responses in submission
/// order as they become ready, wait out in-flight work at EOF/quit.
int run_stdio(svc::TuningService& service, std::istream& in) {
  const std::shared_ptr<net::Session> session =
      net::Session::create(service, {}, net::Session::Origin::Console);
  std::string line;
  while (std::getline(in, line)) {
    session->feed_line(line);
    if (session->quit_requested()) break;
    // A metrics/save barrier is a synchronization point in stdin mode:
    // don't read past it until everything before it has resolved.
    if (session->barrier_pending()) session->wait_all();
    print_drained(*session);
  }
  session->finish_input();
  session->wait_all();
  print_drained(*session);
  return 0;
}

/// The TCP transport: start the epoll front-end, then park until a
/// SIGINT/SIGTERM arrives and shut down gracefully. `on_listening`
/// (optional) fires once with the bound port — the --join announcement
/// hook, invoked only after the node can actually serve.
int run_tcp(svc::TuningService& service, net::ServerOptions net_opts,
            sigset_t* signals,
            const std::function<void(std::uint16_t)>& on_listening) {
  std::optional<net::Server> server;
  try {
    server.emplace(service, net_opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot listen: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(server->port()));
  if (on_listening) on_listening(server->port());
  int sig = 0;
  sigwait(signals, &sig);
  std::fprintf(stderr, "signal %d: draining connections...\n", sig);
  server->shutdown();
  const obs::RegistrySnapshot m = server->metrics();
  const auto n = [&m](const char* name) {
    return static_cast<unsigned long long>(m.counter_value(name));
  };
  std::fprintf(stderr,
               "served %llu responses over %llu connections "
               "(%llu evicted), %llu bytes in / %llu bytes out\n",
               n("net.responses"), n("net.conns_accepted"),
               n("net.conns_evicted_idle") + n("net.conns_evicted_slow"),
               n("net.bytes_in"), n("net.bytes_out"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  svc::TuningService::Options opts;
  net::ServerOptions net_opts;
  bool listen_mode = false;
  bool ship_mode = false;
  std::uint16_t ship_port = 0;
  bool follower_mode = false;
  std::uint16_t leader_port = 0;
  bool registry_mode = false;
  std::uint16_t registry_port = 0;
  bool join_mode = false;
  repl::Endpoint join_ep;
  std::string script = "-";
  TraceDump trace_dump;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      opts.workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--queue-depth") && i + 1 < argc) {
      opts.max_queue = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--failpoints") && i + 1 < argc) {
      if (!ilc::support::Failpoints::instance().configure(argv[++i])) {
        std::fprintf(stderr, "bad --failpoints spec\n");
        return usage(argv[0]);
      }
    } else if (!std::strcmp(argv[i], "--kb") && i + 1 < argc) {
      opts.kb_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--seed-kb") && i + 1 < argc) {
      opts.seed_kb_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--script") && i + 1 < argc) {
      script = argv[++i];
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_dump.path = argv[++i];
      obs::Tracer::set_enabled(true);
    } else if (!std::strcmp(argv[i], "--listen") && i + 1 < argc) {
      listen_mode = true;
      net_opts.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--loops") && i + 1 < argc) {
      net_opts.loops = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--max-conns") && i + 1 < argc) {
      net_opts.max_conns = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--idle-timeout-ms") && i + 1 < argc) {
      net_opts.idle_timeout_ms =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--shard-of") && i + 1 < argc) {
      unsigned idx = 0, n = 0;
      if (std::sscanf(argv[++i], "%u/%u", &idx, &n) != 2 || n == 0 ||
          idx >= n) {
        std::fprintf(stderr, "--shard-of wants i/N with i < N\n");
        return usage(argv[0]);
      }
      opts.shard_index = idx;
      opts.shard_count = n;
    } else if (!std::strcmp(argv[i], "--ship") && i + 1 < argc) {
      ship_mode = true;
      ship_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--follower-of") && i + 1 < argc) {
      // "PORT" or "127.0.0.1:PORT" / "localhost:PORT" — loopback only,
      // like every listener in this repo (the protocol is unauthenticated).
      follower_mode = true;
      std::string arg = argv[++i];
      if (const auto colon = arg.rfind(':'); colon != std::string::npos) {
        const std::string host = arg.substr(0, colon);
        if (host != "127.0.0.1" && host != "localhost") {
          std::fprintf(stderr, "--follower-of is loopback-only\n");
          return usage(argv[0]);
        }
        arg = arg.substr(colon + 1);
      }
      leader_port = static_cast<std::uint16_t>(std::atoi(arg.c_str()));
    } else if (!std::strcmp(argv[i], "--registry") && i + 1 < argc) {
      registry_mode = true;
      registry_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--join") && i + 1 < argc) {
      // host:port or bare port; loopback-only like --follower-of.
      join_mode = true;
      std::string arg = argv[++i];
      std::string host = "127.0.0.1";
      if (const auto colon = arg.rfind(':'); colon != std::string::npos) {
        host = arg.substr(0, colon);
        if (host != "127.0.0.1" && host != "localhost") {
          std::fprintf(stderr, "--join is loopback-only\n");
          return usage(argv[0]);
        }
        host = "127.0.0.1";
        arg = arg.substr(colon + 1);
      }
      join_ep = {host, static_cast<std::uint16_t>(std::atoi(arg.c_str()))};
    } else {
      return usage(argv[0]);
    }
  }
  if (join_mode && !listen_mode) {
    std::fprintf(stderr, "--join requires --listen (the announced port)\n");
    return usage(argv[0]);
  }

  std::ifstream file;
  if (script != "-") {
    file.open(script);
    if (!file) {
      std::fprintf(stderr, "cannot open script %s\n", script.c_str());
      return 1;
    }
  }
  std::istream& in = script == "-" ? std::cin : file;

  support::Failpoints::instance().configure_from_env();

  // In TCP mode the shutdown signals must be blocked before any thread
  // spawns (service workers and event loops inherit the mask), so the
  // only thread that sees them is the one parked in sigwait.
  sigset_t signals;
  sigemptyset(&signals);
  if (listen_mode) {
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  }

  // Follower mode: --kb names the replica directory. The Applier owns it
  // (follower stores are read-only), a ShipClient streams the leader's
  // WAL into it, and the service answers from it as its follower_store,
  // with no kb_path of its own — the replicated store has exactly one
  // writer.
  std::unique_ptr<repl::Applier> applier;
  std::unique_ptr<repl::ShipClient> ship_client;
  if (follower_mode) {
    if (ship_mode) {
      std::fprintf(stderr, "--follower-of and --ship are exclusive\n");
      return usage(argv[0]);
    }
    if (opts.kb_path.empty()) {
      std::fprintf(stderr,
                   "--follower-of requires --kb (the replica directory)\n");
      return usage(argv[0]);
    }
    applier = repl::Applier::open(opts.kb_path);
    if (!applier) {
      std::fprintf(stderr, "cannot open replica store %s\n",
                   opts.kb_path.c_str());
      return 1;
    }
    ship_client = repl::ShipClient::start(*applier, leader_port);
    opts.kb_path.clear();
    opts.follower_store = &applier->store();
    std::fprintf(stderr, "replicating from 127.0.0.1:%u\n",
                 static_cast<unsigned>(leader_port));
  }

  std::optional<svc::TuningService> service;
  try {
    service.emplace(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start service: %s\n", e.what());
    return 1;
  }
  if (!opts.seed_kb_path.empty())
    std::fprintf(stderr, "seed bank: %zu programs clustered\n",
                 service->seed_bank_programs());

  // Leader mode: ship this service's KB WAL to followers. Started after
  // the service so the store directory exists before the first Hello.
  std::unique_ptr<repl::ShipServer> ship_server;
  if (ship_mode) {
    if (opts.kb_path.empty()) {
      std::fprintf(stderr, "--ship requires --kb\n");
      return usage(argv[0]);
    }
    ship_server = repl::ShipServer::start(opts.kb_path, ship_port);
    if (!ship_server) {
      std::fprintf(stderr, "cannot ship on 127.0.0.1:%u\n",
                   static_cast<unsigned>(ship_port));
      return 1;
    }
    std::fprintf(stderr, "shipping WAL on 127.0.0.1:%u\n",
                 static_cast<unsigned>(ship_server->port()));
  }

  // Registry mode: this node also serves the authoritative shard map.
  // Any node can carry it (it is just another line-protocol listener);
  // by convention it rides on shard 0's leader.
  std::unique_ptr<cluster::Registry> registry;
  std::unique_ptr<cluster::RegistryServer> registry_server;
  if (registry_mode) {
    registry = std::make_unique<cluster::Registry>(
        opts.shard_count > 0 ? opts.shard_count : 1);
    registry_server = cluster::RegistryServer::start(*registry, registry_port);
    if (!registry_server) {
      std::fprintf(stderr, "cannot serve registry on 127.0.0.1:%u\n",
                   static_cast<unsigned>(registry_port));
      return 1;
    }
    std::fprintf(stderr, "registry on 127.0.0.1:%u (%u shards)\n",
                 static_cast<unsigned>(registry_server->port()),
                 static_cast<unsigned>(opts.shard_count > 0 ? opts.shard_count
                                                            : 1));
  }

  // --join: announce to the registry once the TCP front-end is bound,
  // so the map never names an endpoint that cannot serve yet. Leaders
  // carry their ship port into the map; followers just register.
  std::function<void(std::uint16_t)> on_listening;
  if (join_mode) {
    on_listening = [&join_ep, &ship_server, shard = opts.shard_index,
                    follower_mode](std::uint16_t port) {
      cluster::RegistryClient client(join_ep);
      std::string why;
      if (!client.fetch(&why)) {
        std::fprintf(stderr, "join: cannot reach registry at %s: %s\n",
                     join_ep.to_string().c_str(), why.c_str());
        return;
      }
      const repl::Endpoint self{"127.0.0.1", port};
      const bool ok =
          follower_mode
              ? client.follow(shard, self, &why)
              : client.lead(shard, self,
                            ship_server ? ship_server->port() : 0,
                            client.epoch(), &why);
      if (ok)
        std::fprintf(stderr, "joined shard %u as %s\n",
                     static_cast<unsigned>(shard),
                     follower_mode ? "follower" : "leader");
      else
        std::fprintf(stderr, "join refused: %s\n", why.c_str());
    };
  }

  return listen_mode ? run_tcp(*service, net_opts, &signals, on_listening)
                     : run_stdio(*service, in);
}
