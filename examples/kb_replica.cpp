// kb_replica — one machine, one leader, two read-only followers: the
// whole ilc::repl stack end to end.
//
//   1. A leader TuningService answers tune requests and persists every
//      result into its kbstore; a ShipServer tails that store's WAL over
//      loopback TCP.
//   2. Two followers each run an Applier (a follower-mode store) fed by a
//      ShipClient. They bootstrap cold, then stream frames as the leader
//      commits them.
//   3. A write burst (the workload suite under both objectives) runs
//      through the leader; the followers converge to zero replication
//      lag, at which point their store files are byte-identical to the
//      leader's — checked, not assumed.
//   4. A read-only follower service answers the same requests from the
//      replicated KB (Source::Follower) without running a single search,
//      and a repl::Router demonstrates the failover policy: owner primary
//      first, follower fallback (read-only) when the primary is down.
//
// Exits non-zero on any divergence, missed hit, or timed-out catch-up.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ir/fingerprint.hpp"
#include "repl/applier.hpp"
#include "repl/router.hpp"
#include "repl/ship.hpp"
#include "repl/transport.hpp"
#include "svc/service.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

int fail(const std::string& why) {
  std::fprintf(stderr, "kb_replica: FAIL: %s\n", why.c_str());
  return 1;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Catch-up gate: the follower's durable position must equal the
/// leader's *on-disk* position (not just the last heartbeat — heartbeat
/// lag reads zero between ship batches, which is exactly the trap a
/// convergence check must not fall into).
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

}  // namespace

int main() {
  const std::string leader_dir = fresh_dir("kb_replica_leader");
  const std::string f1_dir = fresh_dir("kb_replica_f1");
  const std::string f2_dir = fresh_dir("kb_replica_f2");

  // --- leader: tuning service + WAL shipping ------------------------------
  svc::TuningService::Options lopts;
  lopts.workers = 2;
  lopts.kb_path = leader_dir;
  svc::TuningService leader(lopts);

  auto ship = repl::ShipServer::start(leader_dir, /*port=*/0);
  if (!ship) return fail("cannot start ship server");
  std::printf("leader shipping WAL on 127.0.0.1:%u\n",
              static_cast<unsigned>(ship->port()));

  // --- two cold followers -------------------------------------------------
  repl::Applier::Options a1o, a2o;
  a1o.metric_prefix = "repl.f1";
  a2o.metric_prefix = "repl.f2";
  auto f1 = repl::Applier::open(f1_dir, a1o);
  auto f2 = repl::Applier::open(f2_dir, a2o);
  if (!f1 || !f2) return fail("cannot open follower stores");
  auto c1 = repl::ShipClient::start(*f1, ship->port());
  auto c2 = repl::ShipClient::start(*f2, ship->port());

  // --- write burst through the leader -------------------------------------
  const std::vector<wl::Workload> suite = wl::make_suite();
  std::vector<svc::TuningRequest> requests;
  for (const auto& w : suite) {
    for (const auto obj :
         {search::Objective::Cycles, search::Objective::CodeSize}) {
      svc::TuningRequest req;
      req.program = w.name;
      req.objective = obj;
      req.budget = 3;
      requests.push_back(req);
    }
  }
  std::vector<std::shared_future<svc::TuningResponse>> futures;
  for (const auto& req : requests) futures.push_back(leader.submit(req));
  std::size_t searched = 0;
  for (auto& fut : futures) {
    const svc::TuningResponse r = fut.get();
    if (!r.ok) return fail("leader tune failed: " + r.error);
    if (r.source == svc::Source::Search) ++searched;
  }
  std::printf("leader ran %zu searches over %zu requests\n", searched,
              futures.size());
  leader.save();  // group-commit barrier: everything durable, shippable

  // --- converge: zero lag, byte-identical stores --------------------------
  if (!wait_caught_up(leader_dir, *f1, 30000))
    return fail("follower 1 never caught up");
  if (!wait_caught_up(leader_dir, *f2, 30000))
    return fail("follower 2 never caught up");
  for (const auto* dir : {&f1_dir, &f2_dir}) {
    if (const auto d = repl::divergence(leader_dir, *dir))
      return fail("divergence vs " + *dir + ": " + *d);
  }
  std::printf("followers caught up: %llu frames each, stores byte-identical "
              "to leader\n",
              static_cast<unsigned long long>(f1->position().seq));

  // --- read-only serving from the replica ---------------------------------
  svc::TuningService::Options fopts;
  fopts.workers = 1;
  fopts.follower_store = &f1->store();
  svc::TuningService follower_svc(fopts);
  std::size_t follower_hits = 0;
  for (const auto& req : requests) {
    const svc::TuningResponse r = follower_svc.tune(req);
    if (!r.ok) return fail("follower miss for " + req.program + ": " + r.error);
    if (r.source != svc::Source::Follower)
      return fail("expected Source::Follower for " + req.program);
    if (r.simulations != 0) return fail("follower ran a simulation");
    ++follower_hits;
  }
  std::printf("follower served %zu warm hits, zero searches\n", follower_hits);

  // --- router: owner first, read-only follower when the primary is down ---
  repl::Router router({{/*primary=*/{"127.0.0.1", 7070},
                        /*followers=*/{{"127.0.0.1", 7071},
                                       {"127.0.0.1", 7072}}}});
  const std::uint64_t fp = ir::fingerprint(suite.front().module);
  auto route = router.route(fp);
  if (!route || route->read_only) return fail("expected primary route");
  router.set_down(route->endpoint);
  route = router.route(fp);
  if (!route || !route->read_only || route->endpoint.port != 7071)
    return fail("expected read-only follower fallback");
  std::printf("router: primary down -> read-only fallback at %s\n",
              route->endpoint.to_string().c_str());

  c1.reset();
  c2.reset();
  ship.reset();
  std::printf("kb_replica: OK\n");
  return 0;
}
