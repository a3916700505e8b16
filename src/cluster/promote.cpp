#include "cluster/promote.hpp"

#include <chrono>

namespace ilc::cluster {

Promoter::Promoter(const PromoterOptions& opts) {
  obs::Registry& reg =
      opts.registry ? *opts.registry : obs::Registry::instance();
  const std::string& p = opts.metric_prefix;
  failovers_ = reg.counter(p + ".failovers");
  promotion_us_ = reg.histogram(p + ".promotion_us");
  last_promotion_us_ = reg.gauge(p + ".last_promotion_us");
  generation_ = reg.gauge(p + ".leader_generation");
}

std::size_t Promoter::pick(const std::vector<Replica>& replicas) {
  std::size_t best = replicas.size();
  kbstore::WalPosition best_pos;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (!replicas[i].applier) continue;
    const kbstore::WalPosition pos = replicas[i].applier->position();
    const bool ahead =
        best == replicas.size() || pos.generation > best_pos.generation ||
        (pos.generation == best_pos.generation && pos.seq > best_pos.seq);
    if (ahead) {
      best = i;
      best_pos = pos;
    }
  }
  return best;
}

PromotionResult Promoter::failover(std::vector<Replica>& replicas,
                                   std::uint16_t ship_port) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  PromotionResult result;

  // 1. Drain: stop the shipping transports. ShipClient::stop joins its
  // thread, so after this loop every Applier holds everything it ever
  // received from the old leader.
  for (Replica& r : replicas)
    if (r.client) r.client->stop();

  // 2. Pick the most-caught-up survivor by durable position.
  const std::size_t chosen = pick(replicas);
  if (chosen == replicas.size()) {
    result.why = "no promotable replica";
    return result;
  }

  // 3. Flip its store out of follower mode onto a fenced generation.
  std::string why;
  std::shared_ptr<kbstore::Store> store =
      replicas[chosen].applier->promote(&why);
  if (!store) {
    result.why = "promotion of replica " + std::to_string(chosen) +
                 " failed: " + why;
    return result;
  }
  replicas[chosen].client.reset();  // nobody's follower now

  // 4. Ship from the new leader; re-point the remaining followers.
  std::unique_ptr<repl::ShipServer> ship =
      repl::ShipServer::start(replicas[chosen].dir, ship_port);
  if (!ship) {
    result.why = "ship server failed to bind";
    return result;
  }
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (i == chosen || !replicas[i].applier) continue;
    replicas[i].client =
        repl::ShipClient::start(*replicas[i].applier, ship->port());
  }

  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - t0)
                      .count();
  failovers_.add(1);
  promotion_us_.record(static_cast<std::uint64_t>(us));
  last_promotion_us_.set(static_cast<std::int64_t>(us));
  generation_.set(static_cast<std::int64_t>(store->wal_generation()));

  result.ok = true;
  result.chosen = chosen;
  result.generation = store->wal_generation();
  result.store = std::move(store);
  result.ship = std::move(ship);
  return result;
}

}  // namespace ilc::cluster
