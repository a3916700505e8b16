// cluster_demo — a 2-shard x 2-replica fleet managing itself through the
// ilc::cluster control plane, end to end on one machine:
//
//   1. A Registry serves the shard map; every node announces itself
//      (leaders with their WAL-shipping port, followers by endpoint).
//   2. A client builds its Router straight from the registry — no
//      hand-wired --shard-of/--follower-of topology — and a
//      HealthMonitor probes all four endpoints over the line protocol.
//   3. A write burst runs through both shard leaders; followers converge
//      to byte-identical stores.
//   4. Scatter-gather fans `metrics` across the shards and merges the
//      per-shard answers.
//   5. Shard 0's leader is killed. The monitor marks it Down after the
//      debounce, the Router falls back to the read-only follower, and a
//      Promoter runs the full failover: drain, pick, promote onto a new
//      WAL generation, announce to the registry.
//   6. The client observes the epoch bump and re-points at the promoted
//      leader; the dead leader's attempt to re-announce with its stale
//      epoch is fenced.
//   7. Shard 1 dies entirely; scatter degrades to an explicit partial
//      result instead of failing or hanging.
//
// Exits non-zero when any of those observations does not hold.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/health.hpp"
#include "cluster/promote.hpp"
#include "cluster/registry.hpp"
#include "cluster/scatter.hpp"
#include "ir/fingerprint.hpp"
#include "net/server.hpp"
#include "repl/applier.hpp"
#include "repl/ship.hpp"
#include "repl/transport.hpp"
#include "svc/service.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

int fail(const std::string& why) {
  std::fprintf(stderr, "cluster_demo: FAIL: %s\n", why.c_str());
  return 1;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

bool wait_caught_up(const std::string& leader_dir, const repl::Applier& a,
                    int timeout_ms) {
  const auto target = repl::ShipSource(leader_dir).position();
  if (!target) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const kbstore::WalPosition pos = a.position();
    if (pos.generation == target->generation && pos.seq == target->seq &&
        pos.chain_crc == target->chain_crc && a.lag() == 0)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// Everything one replica owns, leader or follower. The demo is the
/// supervisor: it starts nodes, kills them, and hands the survivors to
/// the Promoter.
struct Node {
  std::string dir;
  std::optional<svc::TuningService> service;
  std::optional<net::Server> server;          // line-protocol front-end
  std::unique_ptr<repl::ShipServer> ship;     // leaders only
  std::shared_ptr<repl::Applier> applier;     // followers only
  std::unique_ptr<repl::ShipClient> shipping; // followers only

  repl::Endpoint endpoint() const {
    return {"127.0.0.1", server ? server->port() : 0};
  }
  void kill() {  // abrupt: stop serving, stop shipping, drop the service
    if (server) server->shutdown();
    server.reset();
    ship.reset();
    service.reset();
  }
};

}  // namespace

int main() {
  constexpr std::size_t kShards = 2;

  // --- registry first: the fleet's single source of topology truth -------
  cluster::Registry registry(kShards);
  auto registry_server = cluster::RegistryServer::start(registry, /*port=*/0);
  if (!registry_server) return fail("cannot start registry server");
  const repl::Endpoint registry_ep{"127.0.0.1", registry_server->port()};
  std::printf("registry on %s\n", registry_ep.to_string().c_str());

  // --- two shards, each a leader + one follower ---------------------------
  Node leaders[kShards], followers[kShards];
  cluster::RegistryClient admin(registry_ep);
  for (std::size_t s = 0; s < kShards; ++s) {
    Node& l = leaders[s];
    l.dir = fresh_dir("cluster_demo_l" + std::to_string(s));
    svc::TuningService::Options lo;
    lo.workers = 1;
    lo.kb_path = l.dir;
    lo.shard_index = s;
    lo.shard_count = kShards;
    l.service.emplace(lo);
    l.server.emplace(*l.service, net::ServerOptions{});
    l.ship = repl::ShipServer::start(l.dir, /*port=*/0);
    if (!l.ship) return fail("cannot ship shard " + std::to_string(s));

    Node& f = followers[s];
    f.dir = fresh_dir("cluster_demo_f" + std::to_string(s));
    f.applier = repl::Applier::open(f.dir);
    if (!f.applier) return fail("cannot open follower " + std::to_string(s));
    f.shipping = repl::ShipClient::start(*f.applier, l.ship->port());
    svc::TuningService::Options fo;
    fo.workers = 1;
    fo.shard_index = s;
    fo.shard_count = kShards;
    fo.follower_store = &f.applier->store();
    f.service.emplace(fo);
    f.server.emplace(*f.service, net::ServerOptions{});

    // Announce both roles to the registry, as the nodes themselves would
    // via tuning_server --join.
    std::string ferr;
    if (!admin.fetch(&ferr)) return fail("registry fetch: " + ferr);
    std::string why;
    if (!admin.lead(s, l.endpoint(), l.ship->port(), admin.epoch(), &why))
      return fail("lead announce: " + why);
    if (!admin.follow(s, f.endpoint(), &why))
      return fail("follow announce: " + why);
  }

  // --- write burst, routed by fingerprint ownership -----------------------
  const std::vector<wl::Workload> suite = wl::make_suite();
  std::vector<std::shared_future<svc::TuningResponse>> futures;
  for (const auto& w : suite) {
    svc::TuningRequest req;
    req.program = w.name;
    req.budget = 2;
    const std::size_t owner = ir::fingerprint(w.module) % kShards;
    futures.push_back(leaders[owner].service->submit(req));
  }
  for (auto& fut : futures) {
    const svc::TuningResponse r = fut.get();
    if (!r.ok) return fail("tune failed: " + r.error);
  }
  for (Node& l : leaders) l.service->save();  // durable + shippable
  for (std::size_t s = 0; s < kShards; ++s)
    if (!wait_caught_up(leaders[s].dir, *followers[s].applier, 30000))
      return fail("follower " + std::to_string(s) + " never caught up");
  std::printf("tuned %zu programs across %zu shards; followers caught up\n",
              futures.size(), kShards);

  // --- client: registry-built router + active health probing --------------
  cluster::RegistryClient client(registry_ep);
  if (!client.fetch()) return fail("client registry fetch");
  const std::uint64_t stale_epoch = client.epoch();  // pre-failover view
  repl::Router router(client.router_shards());

  cluster::HealthOptions ho;
  ho.probe_timeout_ms = 1000;
  ho.metric_prefix = "demo";
  cluster::HealthMonitor monitor(ho);
  for (std::size_t s = 0; s < kShards; ++s) {
    monitor.add(leaders[s].endpoint());
    monitor.add(followers[s].endpoint());
  }
  monitor.watch(&router);
  monitor.probe_all_once();
  for (const auto& [ep, h] : monitor.states())
    if (h != cluster::Health::Healthy)
      return fail("expected " + ep.to_string() + " healthy, got " +
                  cluster::to_string(h));
  std::printf("health: all %zu endpoints healthy\n", monitor.states().size());

  // --- scatter-gather across the healthy fleet ----------------------------
  cluster::ScatterOptions so;
  so.timeout_ms = 5000;
  so.metric_prefix = "demo";
  cluster::ScatterClient scatter(router, so);
  cluster::ScatterResult all = scatter.query("metrics");
  if (!all.complete()) return fail("scatter over healthy fleet was partial");
  std::printf("scatter: %s\n",
              cluster::ScatterClient::merge_metrics(all).c_str());

  // --- kill shard 0's leader ----------------------------------------------
  const repl::Endpoint dead = leaders[0].endpoint();
  const std::uint16_t dead_ship = leaders[0].ship->port();
  leaders[0].kill();
  std::printf("killed shard 0 leader %s\n", dead.to_string().c_str());
  for (int i = 0; i < ho.down_after; ++i) monitor.probe_all_once();
  if (monitor.state(dead) != cluster::Health::Down)
    return fail("dead leader not marked Down after debounce");

  // The Router (fed by the monitor) now serves shard 0 read-only.
  const auto degraded = router.route_shard(0);
  if (!degraded || !degraded->read_only ||
      degraded->endpoint != followers[0].endpoint())
    return fail("expected read-only fallback to shard 0's follower");
  cluster::ScatterResult ro = scatter.query("ping");
  if (!ro.complete() || !ro.replies[0].read_only)
    return fail("expected complete scatter with shard 0 read-only");
  std::printf("shard 0 degraded to read-only follower %s\n",
              degraded->endpoint.to_string().c_str());

  // --- automatic failover: promote the follower ---------------------------
  std::vector<cluster::Replica> survivors;
  survivors.push_back({followers[0].dir, followers[0].applier,
                       std::move(followers[0].shipping)});
  cluster::Promoter promoter;
  cluster::PromotionResult promo = promoter.failover(survivors);
  if (!promo.ok) return fail("failover: " + promo.why);
  std::printf("promoted %s onto generation %llu (fencing compaction)\n",
              followers[0].endpoint().to_string().c_str(),
              static_cast<unsigned long long>(promo.generation));

  // Announce the new leader; the registry bumps the epoch.
  if (!admin.fetch()) return fail("registry fetch");
  std::string why;
  if (!admin.lead(0, followers[0].endpoint(), promo.ship->port(),
                  admin.epoch(), &why))
    return fail("promotion announce: " + why);

  // The client sees the epoch move and rebuilds its router.
  if (!client.refresh()) return fail("client refresh");
  if (client.epoch() <= stale_epoch) return fail("epoch did not advance");
  repl::Router fresh(client.router_shards());
  const auto repointed = fresh.route_shard(0);
  if (!repointed || repointed->endpoint != followers[0].endpoint() ||
      repointed->read_only)
    return fail("client did not re-point at the promoted leader");
  std::printf("client observed epoch %llu -> %llu, re-pointed shard 0\n",
              static_cast<unsigned long long>(stale_epoch),
              static_cast<unsigned long long>(client.epoch()));

  // --- the resurrected old leader is fenced -------------------------------
  if (admin.lead(0, dead, dead_ship, stale_epoch, &why))
    return fail("stale re-announcement was accepted");
  std::printf("old leader fenced: %s\n", why.c_str());

  // --- shard 1 dies entirely: scatter degrades, explicitly ----------------
  leaders[1].kill();
  followers[1].kill();
  cluster::ScatterClient scatter2(fresh, so);
  cluster::ScatterResult partial = scatter2.query("metrics");
  if (partial.complete() || partial.responded != 1 || partial.replies[1].ok)
    return fail("expected a partial scatter with only shard 0 answering");
  std::printf("scatter (shard 1 down): %s\n",
              cluster::ScatterClient::merge_metrics(partial).c_str());

  promo.ship.reset();
  std::printf("cluster_demo: OK\n");
  return 0;
}
