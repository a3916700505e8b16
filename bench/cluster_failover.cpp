// Failover bench: kill the shard leader under a live writer and measure
// how long until the cluster control plane has detected the death,
// promoted the most-caught-up follower, and served the first write on
// the new leader. Doubles as a correctness gate (the CI smoke): zero
// replicated-acknowledged records lost across the promotion, zero hung
// writes — every write issued during the outage retries until the new
// leader acks it, and every one is present in the promoted store.
//
//   cluster_failover [--smoke] [--json <path>]
//
//   ILC_FAILOVER_RECORDS   records in the leader store    (default 20000)
//   ILC_FAILOVER_BURST     writes issued during the outage (default 2000)
//
// Topology: one leader store, a ShipServer, two followers streaming over
// loopback TCP. The leader's death is deterministic — an injected probe
// flips from alive to dead — and a HealthMonitor debounces it through
// Suspect to Down, at which point the on_change hook runs the Promoter:
// drain both followers, pick the most-caught-up, flip its store onto a
// fenced generation, re-point the other follower. A writer thread spins
// on append-with-retry the whole time, so "failover latency" is measured
// to the first *served* write, not to an internal state change.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/health.hpp"
#include "cluster/promote.hpp"
#include "kbstore/store.hpp"
#include "repl/applier.hpp"
#include "repl/ship.hpp"
#include "repl/transport.hpp"
#include "support/table.hpp"

using namespace ilc;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

kb::ExperimentRecord record(std::size_t i) {
  kb::ExperimentRecord r;
  r.program = "prog-" + std::to_string(i % 997);
  r.machine = "amd-like";
  r.kind = "sequence";
  r.config = "constprop,dce,licm,peephole,unroll";
  r.cycles = 10000 + i;
  r.code_size = 128 + i % 64;
  r.instructions = 5000 + i;
  r.static_features = {1.0, 2.0, 3.0, 4.0};
  r.dynamic_features = {0.5, 0.25, 0.125};
  return r;
}

/// Outage-window writes carry distinct keys so the post-failover
/// presence check is exact, not modulo the key space.
kb::ExperimentRecord outage_record(std::size_t i) {
  kb::ExperimentRecord r = record(i);
  r.program = "failover-" + std::to_string(i);
  return r;
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmts(double secs) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", secs);
  return buf;
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "cluster_failover: FAIL: %s\n", why.c_str());
  std::exit(1);
}

/// Wait until the follower's durable position matches the leader's
/// on-disk position exactly (same gate as the replication bench).
void wait_converged(const std::string& leader_dir, const repl::Applier& a,
                    int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto target = repl::ShipSource(leader_dir).position();
    if (target) {
      const kbstore::WalPosition pos = a.position();
      if (pos.generation == target->generation && pos.seq == target->seq &&
          pos.chain_crc == target->chain_crc)
        return;
    }
    if (Clock::now() >= deadline) die("follower catch-up timed out");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const std::size_t n =
      args.smoke ? 2000 : bench::env_unsigned("ILC_FAILOVER_RECORDS", 20000);
  const std::size_t burst =
      args.smoke ? 200 : bench::env_unsigned("ILC_FAILOVER_BURST", 2000);
  const std::string leader_dir = "cluster_failover_leader.kbd";
  const std::string f1_dir = "cluster_failover_f1.kbd";
  const std::string f2_dir = "cluster_failover_f2.kbd";
  for (const auto* d : {&leader_dir, &f1_dir, &f2_dir}) fs::remove_all(*d);

  std::printf("cluster_failover bench: %zu records, %zu outage writes%s\n\n",
              n, burst, args.smoke ? " (smoke)" : "");
  support::Table table({"pass", "seconds"});
  bench::Json json;
  json.integer("records", n);
  json.integer("outage_writes", burst);
  json.boolean("smoke", args.smoke);

  // --- populate the leader, replicate to two followers -------------------
  const Clock::time_point t_pop = Clock::now();
  kbstore::Options lopts;
  lopts.flush = kbstore::Options::Flush::Batched;
  lopts.background_compaction = false;
  auto leader = kbstore::Store::open(leader_dir, lopts);
  if (!leader) die("cannot open leader store");
  for (std::size_t i = 0; i < n; ++i) leader->append(record(i));
  if (!leader->sync()) die("leader sync failed");
  table.add_row({"populate leader", fmts(secs_since(t_pop))});

  auto ship = repl::ShipServer::start(leader_dir, /*port=*/0);
  if (!ship) die("cannot start ship server");

  // Every-append flushing on the followers: after promotion the writer's
  // records must be durably visible the moment append() returns, or the
  // zero-lost gate would race the new leader's group commit.
  repl::Applier::Options a1o, a2o;
  a1o.metric_prefix = "failover.f1";
  a2o.metric_prefix = "failover.f2";
  a1o.store.flush = kbstore::Options::Flush::EveryAppend;
  a2o.store.flush = kbstore::Options::Flush::EveryAppend;
  std::shared_ptr<repl::Applier> a1 = repl::Applier::open(f1_dir, a1o);
  std::shared_ptr<repl::Applier> a2 = repl::Applier::open(f2_dir, a2o);
  if (!a1 || !a2) die("cannot open followers");

  const Clock::time_point t_boot = Clock::now();
  std::vector<cluster::Replica> replicas;
  replicas.push_back({f1_dir, a1, repl::ShipClient::start(*a1, ship->port())});
  replicas.push_back({f2_dir, a2, repl::ShipClient::start(*a2, ship->port())});
  wait_converged(leader_dir, *a1, 60000);
  wait_converged(leader_dir, *a2, 60000);
  table.add_row({"replicate x2", fmts(secs_since(t_boot))});
  json.number("replicate_s", secs_since(t_boot));

  // --- the control plane -------------------------------------------------
  // Synthetic endpoints: the probe is injected (the deterministic leader
  // death), so nothing ever connects to these.
  const repl::Endpoint leader_ep{"127.0.0.1", 64001};
  const repl::Endpoint f1_ep{"127.0.0.1", 64002};
  const repl::Endpoint f2_ep{"127.0.0.1", 64003};
  std::atomic<bool> leader_alive{true};

  cluster::HealthOptions hopts;
  hopts.metric_prefix = "failover";
  hopts.probe = [&](const repl::Endpoint& ep) {
    if (ep == leader_ep) return leader_alive.load();
    return true;
  };
  cluster::HealthMonitor monitor(hopts);
  monitor.add(leader_ep);
  monitor.add(f1_ep);
  monitor.add(f2_ep);

  // The writer's view of "the shard leader": swapped to the promoted
  // store by the failover hook, null during the outage.
  std::mutex handle_mu;
  std::shared_ptr<kbstore::Store> handle;

  cluster::PromoterOptions popts;
  popts.metric_prefix = "failover";
  cluster::Promoter promoter(popts);
  cluster::PromotionResult promo;
  std::atomic<bool> promoted{false};
  Clock::time_point t_kill{}, t_down{}, t_promoted{};
  monitor.on_change([&](const repl::Endpoint& ep, cluster::Health,
                        cluster::Health to) {
    if (!(ep == leader_ep) || to != cluster::Health::Down) return;
    t_down = Clock::now();
    promo = promoter.failover(replicas);
    if (!promo.ok) die("failover: " + promo.why);
    t_promoted = Clock::now();
    {
      std::lock_guard<std::mutex> lock(handle_mu);
      handle = promo.store;
    }
    promoted.store(true);
  });

  // --- kill the leader under a live writer --------------------------------
  ship->stop();
  leader.reset();
  leader_alive.store(false);
  t_kill = Clock::now();

  std::atomic<std::uint64_t> retries{0};
  std::uint64_t acked = 0;
  Clock::time_point t_first_ack{};
  std::thread writer([&] {
    for (std::size_t i = 0; i < burst; ++i) {
      for (;;) {
        {
          std::lock_guard<std::mutex> lock(handle_mu);
          if (handle) {
            handle->append(outage_record(i));
            if (acked++ == 0) t_first_ack = Clock::now();
            break;
          }
        }
        retries.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  // Drive deterministic probe rounds until the Down debounce fires the
  // failover hook (down_after consecutive failures; the first round
  // only reaches Suspect — that is the point of the grace period).
  while (!promoted.load()) {
    monitor.probe_all_once();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (secs_since(t_kill) > 60.0) die("promotion never happened");
  }
  writer.join();

  const double detect_s =
      std::chrono::duration<double>(t_down - t_kill).count();
  const double promote_s =
      std::chrono::duration<double>(t_promoted - t_down).count();
  const double first_write_s =
      std::chrono::duration<double>(t_first_ack - t_kill).count();
  table.add_row({"detect (kill -> Down)", fmts(detect_s)});
  table.add_row({"promote (Down -> new leader)", fmts(promote_s)});
  table.add_row({"first served write", fmts(first_write_s)});
  json.number("detect_s", detect_s);
  json.number("promote_s", promote_s);
  json.number("first_write_s", first_write_s);
  json.integer("outage_retries", retries.load());
  json.integer("acked", acked);
  json.integer("generation", promo.generation);

  // --- gates --------------------------------------------------------------
  // Zero hung writes: the writer joined, every outage write acked once.
  if (acked != burst) die("hung writes: acked " + std::to_string(acked) +
                          " of " + std::to_string(burst));
  // Zero lost replicated-acknowledged records: both followers had
  // converged to the leader's durable position before the kill, so every
  // pre-kill key must be served by the promoted store.
  const auto& promoted_store = *promo.store;
  for (std::size_t i = 0; i < n; i += 97)
    if (!promoted_store.find("prog-" + std::to_string(i % 997), "amd-like",
                             "sequence"))
      die("lost pre-kill record prog-" + std::to_string(i % 997));
  // And every outage write landed on the new leader.
  for (std::size_t i = 0; i < burst; ++i)
    if (!promoted_store.find("failover-" + std::to_string(i), "amd-like",
                             "sequence"))
      die("lost outage write failover-" + std::to_string(i));
  // The surviving follower re-pointed and converged on the fenced
  // generation.
  const std::size_t other = promo.chosen == 0 ? 1 : 0;
  wait_converged(replicas[promo.chosen].dir, *replicas[other].applier, 60000);
  if (replicas[other].applier->position().generation != promo.generation)
    die("re-pointed follower is not on the promoted generation");
  // Bounded failover latency. Generous even for a loaded CI box: the
  // whole path is deterministic probes + an in-process promotion.
  if (args.smoke && first_write_s > 10.0)
    die("failover exceeded 10s: " + fmts(first_write_s));
  json.boolean("zero_lost", true);
  json.boolean("zero_hung", true);

  std::printf("%s\n", table.render().c_str());
  std::printf("gates: zero lost replicated-acked records, zero hung "
              "writes (%llu retried during the outage), follower on "
              "generation %llu\n",
              static_cast<unsigned long long>(retries.load()),
              static_cast<unsigned long long>(promo.generation));

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << json.render() << "\n";
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  promo.ship->stop();
  for (auto& r : replicas)
    if (r.client) r.client->stop();
  replicas.clear();
  promo.store.reset();
  a1.reset();
  a2.reset();
  for (const auto* d : {&leader_dir, &f1_dir, &f2_dir}) fs::remove_all(*d);
  return 0;
}
