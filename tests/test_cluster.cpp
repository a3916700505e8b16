// ilc::cluster tests: the control plane's deterministic fault suite.
// Health state-machine debounce (Suspect grace, Recovering debounce,
// relapse), ping probes over the real line protocol with failpoint-driven
// leader death, promotion of the most-caught-up follower onto a fenced
// generation with followers re-pointed and byte-identical, the
// resurrected old leader refused on both planes (WAL generation by the
// split-brain handshake, registry re-announcement by the epoch fence),
// clients observing the epoch bump, a registry server that retires each
// connection's session thread as it ends, and scatter-gather degrading to
// an explicit partial result while a shard is dark. Failures are injected
// (support::failpoint, dead ports, killed servers), never timed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/health.hpp"
#include "cluster/promote.hpp"
#include "cluster/registry.hpp"
#include "cluster/scatter.hpp"
#include "kbstore/store.hpp"
#include "net/server.hpp"
#include "repl/applier.hpp"
#include "repl/router.hpp"
#include "repl/ship.hpp"
#include "repl/transport.hpp"
#include "repl/wire.hpp"
#include "support/failpoint.hpp"
#include "svc/service.hpp"

namespace {

namespace fs = std::filesystem;

using namespace ilc;

struct TempDir {
  explicit TempDir(const char* name) : path(name) { fs::remove_all(path); }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

kb::ExperimentRecord sample(const std::string& program, std::uint64_t cycles) {
  kb::ExperimentRecord r;
  r.program = program;
  r.machine = "amd-like";
  r.kind = "sequence";
  r.config = "constprop,dce,licm";
  r.cycles = cycles;
  r.code_size = 100;
  r.static_features = {1.5, -2.25};
  return r;
}

kbstore::Options every_append() {
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::EveryAppend;
  opts.background_compaction = false;
  return opts;
}

bool deliver(repl::Applier& a, const std::string& bytes,
             std::string* why = nullptr) {
  repl::MsgReader reader;
  reader.feed(bytes);
  repl::Msg m;
  while (reader.next(m) == repl::MsgReader::Status::Ok)
    if (!a.apply(m, why)) return false;
  return true;
}

/// In-process replication (no transport): handshake, then poll/deliver
/// until the follower reaches the leader's on-disk position.
bool pipe_replicate(const std::string& leader_dir, repl::Applier& a,
                    std::string* why = nullptr) {
  repl::ShipSource src(leader_dir);
  std::string out;
  if (!src.handshake(a.hello(), out, why)) {
    deliver(a, out);  // the Reject reaches the follower too
    return false;
  }
  const auto target = src.position();
  if (!target) return false;
  for (int i = 0; i < 1000; ++i) {
    out.clear();
    if (!src.poll(out)) return false;
    if (!deliver(a, out, why)) return false;
    const kbstore::WalPosition pos = a.position();
    if (pos.generation == target->generation && pos.seq == target->seq &&
        pos.chain_crc == target->chain_crc)
      return true;
  }
  return false;
}

/// TCP catch-up gate: follower position == the leader's on-disk position.
bool wait_position(const std::string& leader_dir, const repl::Applier& a,
                   int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto target = repl::ShipSource(leader_dir).position();
    if (target) {
      const kbstore::WalPosition pos = a.position();
      if (pos.generation == target->generation && pos.seq == target->seq &&
          pos.chain_crc == target->chain_crc)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// A controllable probe: per-port verdicts, flipped by the test between
/// rounds. Every "failure" is a flag, not a timeout.
struct ProbeScript {
  std::vector<std::uint16_t> down;
  bool operator()(const repl::Endpoint& ep) const {
    for (const std::uint16_t p : down)
      if (p == ep.port) return false;
    return true;
  }
};

struct FailpointGuard {
  ~FailpointGuard() { support::Failpoints::instance().unset_all(); }
};

// --- health state machine -------------------------------------------------

TEST(ClusterHealth, DebouncesDownAndRecovery) {
  obs::Registry metrics;
  cluster::HealthOptions opts;
  opts.down_after = 3;
  opts.up_after = 2;
  opts.registry = &metrics;
  auto script = std::make_shared<ProbeScript>();
  opts.probe = [script](const repl::Endpoint& ep) { return (*script)(ep); };
  cluster::HealthMonitor monitor(opts);

  const repl::Endpoint ep{"127.0.0.1", 9100};
  monitor.add(ep);
  monitor.add(ep);  // duplicate ignored
  EXPECT_EQ(monitor.states().size(), 1u);
  EXPECT_EQ(monitor.state(ep), cluster::Health::Healthy);

  std::vector<std::pair<cluster::Health, cluster::Health>> changes;
  monitor.on_change([&](const repl::Endpoint&, cluster::Health from,
                        cluster::Health to) { changes.emplace_back(from, to); });

  // One dropped probe: Suspect, not Down — the grace period.
  script->down = {ep.port};
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Suspect);

  // A good probe clears suspicion entirely.
  script->down = {};
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Healthy);

  // down_after consecutive failures: Suspect, Suspect, Down.
  script->down = {ep.port};
  monitor.probe_all_once();
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Suspect);
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Down);

  // Recovery debounce: first success only Recovering, second Healthy.
  script->down = {};
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Recovering);
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Healthy);

  // Relapse while Recovering goes straight back to Down.
  script->down = {ep.port};
  monitor.probe_all_once();
  monitor.probe_all_once();
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Down);
  script->down = {};
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Recovering);
  script->down = {ep.port};
  monitor.probe_all_once();
  EXPECT_EQ(monitor.state(ep), cluster::Health::Down);

  // The observed transition sequence, exactly.
  using H = cluster::Health;
  const std::vector<std::pair<H, H>> expected = {
      {H::Healthy, H::Suspect},    {H::Suspect, H::Healthy},
      {H::Healthy, H::Suspect},    {H::Suspect, H::Down},
      {H::Down, H::Recovering},    {H::Recovering, H::Healthy},
      {H::Healthy, H::Suspect},    {H::Suspect, H::Down},
      {H::Down, H::Recovering},    {H::Recovering, H::Down},
  };
  EXPECT_EQ(changes, expected);

  // Counters: only real Down / full recoveries, not Suspect wobble.
  EXPECT_EQ(metrics.counter("cluster.mark_down").value(), 3u);
  EXPECT_EQ(metrics.counter("cluster.mark_up").value(), 1u);

  EXPECT_EQ(monitor.state({"127.0.0.1", 1}),  // unknown = dark
            cluster::Health::Down);
}

TEST(ClusterHealth, DrivesRouterFallbackAndRecovery) {
  obs::Registry metrics;
  const repl::Endpoint primary{"127.0.0.1", 9200};
  const repl::Endpoint follower{"127.0.0.1", 9201};
  repl::Router router({{primary, {follower}}}, &metrics);

  cluster::HealthOptions opts;
  opts.down_after = 2;
  opts.up_after = 1;
  opts.registry = &metrics;
  auto script = std::make_shared<ProbeScript>();
  opts.probe = [script](const repl::Endpoint& ep) { return (*script)(ep); };
  cluster::HealthMonitor monitor(opts);
  monitor.add(primary);
  monitor.add(follower);
  monitor.watch(&router);

  script->down = {primary.port};
  monitor.probe_all_once();  // Suspect: the router still routes primary
  auto r = router.route_shard(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->read_only);

  monitor.probe_all_once();  // Down: fallback engages
  r = router.route_shard(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->read_only);
  EXPECT_EQ(r->endpoint, follower);

  script->down = {};
  monitor.probe_all_once();  // up_after=1: straight back to Healthy
  r = router.route_shard(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->read_only);
  EXPECT_EQ(r->endpoint, primary);
}

// --- ping probe over the real protocol ------------------------------------

TEST(ClusterHealth, PingProbeSpeaksTheLineProtocol) {
  svc::TuningService::Options opts;
  opts.workers = 1;
  opts.shard_index = 1;
  opts.shard_count = 3;
  svc::TuningService service(opts);
  net::Server server(service, {});
  const repl::Endpoint ep{"127.0.0.1", server.port()};

  EXPECT_TRUE(cluster::ping_probe(ep, 2000));
  EXPECT_FALSE(cluster::ping_probe({"127.0.0.1", 1}, 200));  // dead port

  // The failpoint is the deterministic "leader died" of the fault suite.
  FailpointGuard guard;
  ASSERT_TRUE(
      support::Failpoints::instance().configure("cluster.probe=error*2"));
  EXPECT_FALSE(cluster::ping_probe(ep, 2000));
  EXPECT_FALSE(cluster::ping_probe(ep, 2000));
  EXPECT_TRUE(cluster::ping_probe(ep, 2000));  // *2 exhausted

  server.shutdown();
}

// --- promotion ------------------------------------------------------------

TEST(ClusterPromoter, PicksTheMostCaughtUpReplica) {
  EXPECT_EQ(cluster::Promoter::pick({}), 0u);  // empty: size() == 0

  TempDir ahead_leader("cluster_pick_ahead_leader");
  TempDir behind_leader("cluster_pick_behind_leader");
  {
    auto a = kbstore::Store::open(ahead_leader.path, every_append());
    auto b = kbstore::Store::open(behind_leader.path, every_append());
    ASSERT_TRUE(a && b);
    for (int i = 0; i < 5; ++i)
      a->append(sample("p" + std::to_string(i), 100 + i));
    b->append(sample("q", 7));
  }

  TempDir fa("cluster_pick_fa"), fb("cluster_pick_fb"), fc("cluster_pick_fc");
  std::shared_ptr<repl::Applier> a1 = repl::Applier::open(fa.path);
  std::shared_ptr<repl::Applier> a2 = repl::Applier::open(fb.path);
  std::shared_ptr<repl::Applier> a3 = repl::Applier::open(fc.path);
  ASSERT_TRUE(a1 && a2 && a3);
  ASSERT_TRUE(pipe_replicate(behind_leader.path, *a1));
  ASSERT_TRUE(pipe_replicate(ahead_leader.path, *a2));
  ASSERT_TRUE(pipe_replicate(ahead_leader.path, *a3));

  std::vector<cluster::Replica> replicas;
  replicas.push_back({fa.path, a1, nullptr});
  replicas.push_back({fb.path, a2, nullptr});
  replicas.push_back({fc.path, a3, nullptr});
  // Highest (generation, seq) wins; the tie between 1 and 2 goes to the
  // lower index.
  EXPECT_EQ(cluster::Promoter::pick(replicas), 1u);
  replicas.erase(replicas.begin() + 1);
  EXPECT_EQ(cluster::Promoter::pick(replicas), 1u);  // fc over fa
  replicas[1].applier = nullptr;
  EXPECT_EQ(cluster::Promoter::pick(replicas), 0u);  // dead applier skipped
}

TEST(ClusterPromoter, FailoverPromotesFencesAndRepointsFollowers) {
  TempDir leader("cluster_failover_leader");
  TempDir f1("cluster_failover_f1"), f2("cluster_failover_f2");

  auto store = kbstore::Store::open(leader.path, every_append());
  ASSERT_TRUE(store);
  for (int i = 0; i < 4; ++i)
    store->append(sample("p" + std::to_string(i), 100 + i));
  auto ship = repl::ShipServer::start(leader.path, 0);
  ASSERT_TRUE(ship);

  repl::Applier::Options aopts;
  aopts.store = every_append();  // promoted-leader appends ship instantly
  std::shared_ptr<repl::Applier> a1 = repl::Applier::open(f1.path, aopts);
  std::shared_ptr<repl::Applier> a2 = repl::Applier::open(f2.path, aopts);
  ASSERT_TRUE(a1 && a2);
  auto c1 = repl::ShipClient::start(*a1, ship->port());
  auto c2 = repl::ShipClient::start(*a2, ship->port());
  ASSERT_TRUE(wait_position(leader.path, *a1, 30000));
  ASSERT_TRUE(wait_position(leader.path, *a2, 30000));
  const std::uint64_t old_generation = a1->position().generation;

  // The leader dies: shipping gone, store closed. Its directory stays —
  // it will resurrect below.
  ship.reset();
  store.reset();

  obs::Registry metrics;
  cluster::PromoterOptions popts;
  popts.registry = &metrics;
  cluster::Promoter promoter(popts);
  std::vector<cluster::Replica> replicas;
  replicas.push_back({f1.path, a1, std::move(c1)});
  replicas.push_back({f2.path, a2, std::move(c2)});
  cluster::PromotionResult promo = promoter.failover(replicas);
  ASSERT_TRUE(promo.ok) << promo.why;
  EXPECT_EQ(promo.chosen, 0u);  // equally caught up: lowest index
  EXPECT_EQ(promo.generation, old_generation + 1);  // fencing compaction
  EXPECT_TRUE(a1->promoted());
  EXPECT_FALSE(replicas[0].client);  // the new leader follows nobody
  ASSERT_TRUE(replicas[1].client);   // ...and f2 now follows it
  EXPECT_EQ(promoter.failovers(), 1u);

  // The promoted store accepts writes; the re-pointed follower converges
  // onto the new generation, byte-identical.
  promo.store->append(sample("post-failover", 9));
  ASSERT_TRUE(wait_position(f1.path, *a2, 30000));
  EXPECT_EQ(a2->position().generation, promo.generation);
  EXPECT_EQ(repl::divergence(f1.path, f2.path), std::nullopt);

  // Data-plane fence, inbound: the promoted applier refuses any further
  // replication stream.
  std::string why;
  EXPECT_FALSE(pipe_replicate(leader.path, *a1, &why));
  EXPECT_FALSE(why.empty());

  // Data-plane fence, outbound: the resurrected old leader's stream is
  // rejected by a follower on the promoted generation (split-brain
  // check: follower generation ahead).
  replicas[1].client.reset();  // stop following the new leader
  auto old_ship = repl::ShipServer::start(leader.path, 0);
  ASSERT_TRUE(old_ship);
  auto resurrect = repl::ShipClient::start(*a2, old_ship->port());
  ASSERT_TRUE(resurrect);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!resurrect->stopped() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(resurrect->stopped());
  why.clear();
  EXPECT_TRUE(a2->rejected(&why));
  EXPECT_NE(why.find("split-brain"), std::string::npos) << why;

  // A second failover over the same shard finds nothing new to do for
  // the already-promoted replica.
  std::vector<cluster::Replica> again;
  again.push_back({f1.path, a1, nullptr});
  const cluster::PromotionResult second = promoter.failover(again);
  EXPECT_FALSE(second.ok);
  EXPECT_NE(second.why.find("promoted"), std::string::npos) << second.why;
}

// --- registry -------------------------------------------------------------

TEST(ClusterRegistry, ShardMapCodecRoundTrips) {
  cluster::ShardMap map;
  map.epoch = 42;
  map.shards.resize(3);
  map.shards[0].leader = {"127.0.0.1", 7100};
  map.shards[0].ship_port = 7200;
  map.shards[0].followers = {{"127.0.0.1", 7101}, {"127.0.0.1", 7102}};
  map.shards[1].leader = {"127.0.0.1", 7110};
  // shards[2] never announced: no leader.

  cluster::ShardMap back;
  ASSERT_TRUE(cluster::decode_shard_map(cluster::encode_shard_map(map), back));
  EXPECT_EQ(back.epoch, 42u);
  ASSERT_EQ(back.shards.size(), 3u);
  EXPECT_EQ(back.shards[0].leader, map.shards[0].leader);
  EXPECT_EQ(back.shards[0].ship_port, 7200);
  EXPECT_EQ(back.shards[0].followers, map.shards[0].followers);
  EXPECT_EQ(back.shards[1].leader, map.shards[1].leader);
  EXPECT_EQ(back.shards[2].leader.port, 0);  // "-" decodes to unset

  // Truncation (no "end") is malformed, not silently accepted.
  auto lines = cluster::encode_shard_map(map);
  lines.pop_back();
  EXPECT_FALSE(cluster::decode_shard_map(lines, back));

  const auto shards = cluster::to_router_shards(map);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].primary.port, 7100);
  ASSERT_EQ(shards[0].followers.size(), 2u);
}

TEST(ClusterRegistry, FencesStaleLeadershipAnnouncements) {
  obs::Registry metrics;
  cluster::Registry registry(1, &metrics);
  const repl::Endpoint old_leader{"127.0.0.1", 7100};
  const repl::Endpoint new_leader{"127.0.0.1", 7101};

  ASSERT_TRUE(registry.lead(0, old_leader, 7200, registry.epoch()));
  const std::uint64_t stale = registry.epoch();
  ASSERT_TRUE(registry.follow(0, new_leader));

  // Promotion: the promoter announces with a current epoch.
  ASSERT_TRUE(registry.lead(0, new_leader, 7201, registry.epoch()));
  EXPECT_EQ(registry.snapshot().shards[0].leader, new_leader);
  // The promoted node is no longer listed as a follower.
  EXPECT_TRUE(registry.snapshot().shards[0].followers.empty());

  // The resurrected old leader re-announces with its pre-failover view.
  std::string why;
  EXPECT_FALSE(registry.lead(0, old_leader, 7200, stale, &why));
  EXPECT_NE(why.find("fenced"), std::string::npos) << why;
  EXPECT_EQ(registry.snapshot().shards[0].leader, new_leader);
  EXPECT_EQ(metrics.counter("cluster.registry.fenced").value(), 1u);

  // Out-of-range shard and the wire-level error path.
  EXPECT_FALSE(registry.lead(9, old_leader, 0, registry.epoch(), &why));
  EXPECT_EQ(registry.handle("lead 0 127.0.0.1:7100 7200 " +
                            std::to_string(stale))
                .rfind("err fenced", 0),
            0u);
  EXPECT_EQ(registry.handle("bogus").rfind("err", 0), 0u);
}

TEST(ClusterRegistry, ClientsObserveTheEpochBumpOverTheWire) {
  obs::Registry metrics;
  cluster::Registry registry(2, &metrics);
  auto server = cluster::RegistryServer::start(registry, 0);
  ASSERT_TRUE(server);
  const repl::Endpoint registry_ep{"127.0.0.1", server->port()};

  cluster::RegistryClient admin(registry_ep);
  cluster::RegistryClient observer(registry_ep);
  std::string err;
  ASSERT_TRUE(admin.fetch(&err)) << err;
  ASSERT_TRUE(observer.fetch(&err)) << err;
  EXPECT_EQ(observer.epoch(), 0u);

  const repl::Endpoint leader0{"127.0.0.1", 7100};
  const repl::Endpoint follower0{"127.0.0.1", 7101};
  ASSERT_TRUE(admin.lead(0, leader0, 7200, admin.epoch(), &err)) << err;
  ASSERT_TRUE(admin.follow(0, follower0, &err)) << err;
  ASSERT_TRUE(admin.lead(1, {"127.0.0.1", 7110}, 7210, 0, &err)) << err;

  // The observer's cached epoch is stale; refresh() notices and refetches.
  EXPECT_EQ(observer.epoch(), 0u);
  ASSERT_TRUE(observer.refresh(&err)) << err;
  EXPECT_EQ(observer.epoch(), 3u);
  const auto shards = observer.router_shards();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].primary, leader0);
  ASSERT_EQ(shards[0].followers.size(), 1u);
  EXPECT_EQ(shards[0].followers[0], follower0);

  // A refresh with nothing new is one epoch poll, no refetch, still true.
  ASSERT_TRUE(observer.refresh(&err)) << err;
  EXPECT_EQ(observer.epoch(), 3u);

  // Failover announced with the observer's (current) epoch; a second
  // announcement reusing the now-stale epoch is fenced over the wire.
  const std::uint64_t pre_failover = observer.epoch();
  ASSERT_TRUE(admin.lead(0, follower0, 7201, pre_failover, &err)) << err;
  EXPECT_FALSE(admin.lead(0, leader0, 7200, pre_failover, &err));
  EXPECT_NE(err.find("fenced"), std::string::npos) << err;

  ASSERT_TRUE(observer.refresh(&err)) << err;
  EXPECT_EQ(observer.router_shards()[0].primary, follower0);
}

/// Lines of /proc/self/maps, one per mapping. A thread that returned but
/// was never joined keeps its stack and guard page: two mappings.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(ClusterRegistry, SequentialConnectionsRetireTheirSessionThreads) {
  obs::Registry metrics;
  cluster::Registry registry(1, &metrics);
  auto server = cluster::RegistryServer::start(registry, 0);
  ASSERT_TRUE(server);
  // Each refresh() with nothing new is one `epoch` request on its own
  // connection, so each runs on a fresh session thread.
  cluster::RegistryClient client({"127.0.0.1", server->port()});
  std::string err;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(client.refresh(&err)) << err;
  const std::size_t before = mapping_count();

  constexpr int kRequests = 2000;
  for (int i = 0; i < kRequests; ++i)
    ASSERT_TRUE(client.refresh(&err)) << err;

  // Retired threads leave nothing behind; the last few sessions may
  // still be ending, so allow a little slack and a little time. A server
  // that kept its finished threads would hold ~2 mappings per request.
  constexpr std::size_t kSlack = 64;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t after = mapping_count();
  while (after > before + kSlack &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = mapping_count();
  }
  EXPECT_LE(after, before + kSlack)
      << kRequests << " requests grew the mappings from " << before << " to "
      << after;
}

// --- scatter-gather -------------------------------------------------------

TEST(ClusterScatter, GathersAllShardsAndFlagsPartialResults) {
  // Shard 0: a live service. Shard 1: a dead port from the start.
  svc::TuningService::Options opts;
  opts.workers = 1;
  opts.shard_index = 0;
  opts.shard_count = 2;
  svc::TuningService service(opts);
  net::Server server(service, {});

  obs::Registry metrics;
  repl::Router router(
      {{{"127.0.0.1", server.port()}, {}}, {{"127.0.0.1", 1}, {}}},
      &metrics);
  cluster::ScatterOptions sopts;
  sopts.timeout_ms = 2000;
  sopts.registry = &metrics;
  cluster::ScatterClient scatter(router, sopts);

  const cluster::ScatterResult r = scatter.query("ping");
  EXPECT_TRUE(r.partial);
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(r.responded, 1u);
  ASSERT_EQ(r.replies.size(), 2u);
  EXPECT_TRUE(r.replies[0].ok);
  EXPECT_EQ(r.replies[0].line.rfind("ok pong shard=0/2", 0), 0u);
  EXPECT_FALSE(r.replies[1].ok);
  EXPECT_FALSE(r.replies[1].error.empty());
  // Scatter is a passive health signal: the dead endpoint is marked, so
  // its shard (no followers) no longer routes.
  EXPECT_FALSE(router.route_shard(1).has_value());
  EXPECT_EQ(metrics.counter("repl.router.mark_down").value(), 1u);
  EXPECT_EQ(metrics.counter("cluster.scatter.partial").value(), 1u);
  EXPECT_GE(metrics.counter("cluster.scatter.shard_errors").value(), 1u);

  server.shutdown();
}

TEST(ClusterScatter, MergesMetricsAcrossRespondingShards) {
  cluster::ScatterResult result;
  result.replies.resize(3);
  result.replies[0].ok = true;
  result.replies[0].line = "ok metrics requests=10 warm_hits=4 p50=1.5";
  result.replies[1].ok = true;
  result.replies[1].line = "ok metrics requests=32 warm_hits=6 p50=2.5";
  result.replies[2].ok = false;  // dark shard contributes nothing
  result.responded = 2;
  result.partial = true;

  const std::string merged = cluster::ScatterClient::merge_metrics(result);
  EXPECT_NE(merged.find("requests=42"), std::string::npos) << merged;
  EXPECT_NE(merged.find("warm_hits=10"), std::string::npos) << merged;
  EXPECT_NE(merged.find("p50=4"), std::string::npos) << merged;
  EXPECT_NE(merged.find("partial=1 responded=2/3"), std::string::npos)
      << merged;
}

}  // namespace
