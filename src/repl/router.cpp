#include "repl/router.hpp"

namespace ilc::repl {

Router::Router(std::vector<Shard> shards, obs::Registry* registry)
    : shards_(std::move(shards)) {
  std::size_t max_followers = 0;
  for (const auto& s : shards_)
    max_followers = std::max(max_followers, s.followers.size());
  down_.resize(shards_.size());
  for (auto& d : down_) d.resize(1 + max_followers, false);

  obs::Registry& reg = registry ? *registry : obs::Registry::instance();
  fallback_serves_ = reg.counter("repl.router.fallback_serves");
  unroutable_ = reg.counter("repl.router.unroutable");
  mark_down_ = reg.counter("repl.router.mark_down");
  mark_up_ = reg.counter("repl.router.mark_up");
}

std::optional<Router::Route> Router::route_shard_locked(std::size_t s) const {
  const Shard& sh = shards_[s];
  if (!down_[s][0]) return Route{sh.primary, s, /*read_only=*/false};
  for (std::size_t k = 0; k < sh.followers.size(); ++k)
    if (!down_[s][1 + k]) {
      fallback_serves_.add(1);
      return Route{sh.followers[k], s, /*read_only=*/true};
    }
  unroutable_.add(1);
  return std::nullopt;
}

std::optional<Router::Route> Router::route(std::uint64_t fp) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (shards_.empty()) return std::nullopt;
  return route_shard_locked(owner_of(fp, shards_.size()));
}

std::optional<Router::Route> Router::route_shard(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= shards_.size()) {
    // A shard index beyond our map: a stale client talking to a grown
    // fleet. As unroutable as an all-down shard.
    unroutable_.add(1);
    return std::nullopt;
  }
  return route_shard_locked(shard);
}

void Router::mark(const Endpoint& ep, bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].primary == ep && down_[s][0] != down) {
      down_[s][0] = down;
      (down ? mark_down_ : mark_up_).add(1);
    }
    for (std::size_t k = 0; k < shards_[s].followers.size(); ++k)
      if (shards_[s].followers[k] == ep && down_[s][1 + k] != down) {
        down_[s][1 + k] = down;
        (down ? mark_down_ : mark_up_).add(1);
      }
  }
}

}  // namespace ilc::repl
