#include "cluster/registry.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/string_utils.hpp"

namespace ilc::cluster {

namespace {

bool parse_endpoint(const std::string& text, repl::Endpoint& out) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 >= text.size()) return false;
  const long port = std::strtol(text.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) return false;
  out.host = text.substr(0, colon);
  out.port = static_cast<std::uint16_t>(port);
  return !out.host.empty();
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end && *end == '\0';
}

/// `key=value` field of a response/shard line, "" when absent.
std::string field(const std::vector<std::string>& words,
                  const std::string& key) {
  const std::string prefix = key + "=";
  for (const std::string& w : words)
    if (w.rfind(prefix, 0) == 0) return w.substr(prefix.size());
  return "";
}

}  // namespace

// ---- codec ---------------------------------------------------------------

std::vector<std::string> encode_shard_map(const ShardMap& map) {
  std::vector<std::string> lines;
  lines.push_back("map epoch=" + std::to_string(map.epoch) +
                  " shards=" + std::to_string(map.shards.size()));
  for (std::size_t i = 0; i < map.shards.size(); ++i) {
    const ShardEntry& e = map.shards[i];
    std::string followers;
    for (const repl::Endpoint& f : e.followers) {
      if (!followers.empty()) followers += ',';
      followers += f.to_string();
    }
    if (followers.empty()) followers = "-";
    // A shard nobody has announced yet has no leader: encoded "-", not
    // an unconnectable host:0.
    const std::string leader =
        e.leader.port != 0 ? e.leader.to_string() : std::string("-");
    lines.push_back("shard " + std::to_string(i) + " leader=" + leader +
                    " ship=" + std::to_string(e.ship_port) +
                    " followers=" + followers);
  }
  lines.push_back("end");
  return lines;
}

bool decode_shard_map(const std::vector<std::string>& lines, ShardMap& out) {
  if (lines.empty()) return false;
  const std::vector<std::string> head = support::split_ws(lines[0]);
  if (head.empty() || head[0] != "map") return false;
  ShardMap map;
  std::uint64_t shard_count = 0;
  if (!parse_u64(field(head, "epoch"), map.epoch) ||
      !parse_u64(field(head, "shards"), shard_count))
    return false;
  map.shards.resize(shard_count);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i] == "end") {
      out = std::move(map);
      return true;
    }
    const std::vector<std::string> words = support::split_ws(lines[i]);
    std::uint64_t idx = 0;
    if (words.size() < 2 || words[0] != "shard" || !parse_u64(words[1], idx) ||
        idx >= shard_count)
      return false;
    ShardEntry& e = map.shards[idx];
    const std::string leader = field(words, "leader");
    if (leader != "-" && !parse_endpoint(leader, e.leader)) return false;
    std::uint64_t ship = 0;
    if (!parse_u64(field(words, "ship"), ship) || ship > 65535) return false;
    e.ship_port = static_cast<std::uint16_t>(ship);
    const std::string followers = field(words, "followers");
    if (followers != "-" && !followers.empty()) {
      std::size_t start = 0;
      while (start <= followers.size()) {
        const std::size_t comma = followers.find(',', start);
        const std::string one =
            followers.substr(start, comma == std::string::npos
                                        ? std::string::npos
                                        : comma - start);
        repl::Endpoint ep;
        if (!parse_endpoint(one, ep)) return false;
        e.followers.push_back(ep);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
  }
  return false;  // no "end": truncated response
}

std::vector<repl::Router::Shard> to_router_shards(const ShardMap& map) {
  std::vector<repl::Router::Shard> shards;
  shards.reserve(map.shards.size());
  for (const ShardEntry& e : map.shards)
    shards.push_back({e.leader, e.followers});
  return shards;
}

// ---- Registry ------------------------------------------------------------

Registry::Registry(std::size_t shard_count, obs::Registry* metrics) {
  map_.shards.resize(shard_count);
  lead_epoch_.resize(shard_count, 0);
  obs::Registry& reg = metrics ? *metrics : obs::Registry::instance();
  g_epoch_ = reg.gauge("cluster.registry.epoch");
  changes_ = reg.counter("cluster.registry.changes");
  fenced_ = reg.counter("cluster.registry.fenced");
}

std::uint64_t Registry::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.epoch;
}

ShardMap Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_;
}

bool Registry::lead(std::size_t shard, const repl::Endpoint& leader,
                    std::uint16_t ship_port, std::uint64_t known_epoch,
                    std::string* why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= map_.shards.size()) {
    if (why) *why = "no such shard " + std::to_string(shard);
    return false;
  }
  if (known_epoch < lead_epoch_[shard]) {
    // The announcer's view predates this shard's last leadership change:
    // a resurrected old leader (or a lost promotion race). Refuse.
    fenced_.add(1);
    if (why)
      *why = "fenced: shard " + std::to_string(shard) +
             " leadership changed at epoch " +
             std::to_string(lead_epoch_[shard]) + ", announcer knew epoch " +
             std::to_string(known_epoch);
    return false;
  }
  ShardEntry& e = map_.shards[shard];
  // The new leader stops being anyone's follower; the old leader is
  // gone until it rejoins explicitly (as a follower, post-re-sync).
  for (ShardEntry& s : map_.shards)
    s.followers.erase(
        std::remove(s.followers.begin(), s.followers.end(), leader),
        s.followers.end());
  e.leader = leader;
  e.ship_port = ship_port;
  map_.epoch += 1;
  lead_epoch_[shard] = map_.epoch;
  g_epoch_.set(static_cast<std::int64_t>(map_.epoch));
  changes_.add(1);
  return true;
}

bool Registry::follow(std::size_t shard, const repl::Endpoint& ep) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= map_.shards.size()) return false;
  for (ShardEntry& s : map_.shards)
    s.followers.erase(std::remove(s.followers.begin(), s.followers.end(), ep),
                      s.followers.end());
  map_.shards[shard].followers.push_back(ep);
  map_.epoch += 1;
  g_epoch_.set(static_cast<std::int64_t>(map_.epoch));
  changes_.add(1);
  return true;
}

std::string Registry::handle(const std::string& line) {
  const std::vector<std::string> words = support::split_ws(line);
  if (words.empty()) return "err empty command\n";

  if (words[0] == "get") {
    std::string out;
    for (const std::string& l : encode_shard_map(snapshot())) {
      out += l;
      out += '\n';
    }
    return out;
  }
  if (words[0] == "epoch")
    return "epoch " + std::to_string(epoch()) + "\n";

  if (words[0] == "lead") {
    std::uint64_t shard = 0, ship = 0, known = 0;
    repl::Endpoint leader;
    if (words.size() != 5 || !parse_u64(words[1], shard) ||
        !parse_endpoint(words[2], leader) || !parse_u64(words[3], ship) ||
        ship > 65535 || !parse_u64(words[4], known))
      return "err lead: want `lead <shard> <host:port> <ship_port> "
             "<known_epoch>`\n";
    std::string why;
    if (!lead(static_cast<std::size_t>(shard), leader,
              static_cast<std::uint16_t>(ship), known, &why))
      return "err " + why + "\n";
    return "ok epoch=" + std::to_string(epoch()) + "\n";
  }
  if (words[0] == "follow") {
    std::uint64_t shard = 0;
    repl::Endpoint ep;
    if (words.size() != 3 || !parse_u64(words[1], shard) ||
        !parse_endpoint(words[2], ep))
      return "err follow: want `follow <shard> <host:port>`\n";
    if (!follow(static_cast<std::size_t>(shard), ep))
      return "err no such shard " + words[1] + "\n";
    return "ok epoch=" + std::to_string(epoch()) + "\n";
  }
  return "err unknown command '" + words[0] + "'\n";
}

// ---- RegistryServer ------------------------------------------------------

std::unique_ptr<RegistryServer> RegistryServer::start(Registry& registry,
                                                      std::uint16_t port) {
  auto s = std::unique_ptr<RegistryServer>(new RegistryServer());
  s->registry_ = &registry;
  const RegistryServer* self = s.get();
  s->listener_ = net::Listener::start(
      port, [self](net::Fd fd, const std::atomic<bool>& stop) {
        self->session(std::move(fd), stop);
      });
  if (!s->listener_) return nullptr;
  return s;
}

void RegistryServer::session(net::Fd fd,
                             const std::atomic<bool>& stop) const {
  net::LineReader reader(fd.get());
  std::string line;
  std::string err;
  while (!stop.load()) {
    // Short poll per line so stop() is honored on an idle connection.
    err.clear();
    if (!reader.next(line, 50, &err)) {
      if (err == "read timeout") continue;  // idle, not gone
      return;  // EOF or hard error: the peer is done
    }
    if (line == "quit") return;
    const std::string response = registry_->handle(line);
    if (!net::write_all(fd.get(), response, 1000)) return;
  }
}

// ---- RegistryClient ------------------------------------------------------

RegistryClient::RegistryClient(repl::Endpoint registry_ep, int timeout_ms)
    : registry_ep_(std::move(registry_ep)), timeout_ms_(timeout_ms) {}

bool RegistryClient::fetch(std::string* err) {
  net::Fd fd = net::connect_within(registry_ep_.port, timeout_ms_, err);
  if (!fd.valid()) return false;
  if (!net::write_all(fd.get(), "get\n", timeout_ms_, nullptr, err))
    return false;
  net::LineReader reader(fd.get());
  std::vector<std::string> lines;
  std::string line;
  do {
    if (!reader.next(line, timeout_ms_, err)) return false;
    lines.push_back(line);
  } while (line != "end");
  ShardMap map;
  if (!decode_shard_map(lines, map)) {
    if (err) *err = "malformed shard map";
    return false;
  }
  cache_ = std::move(map);
  return true;
}

bool RegistryClient::refresh(std::string* err) {
  std::string reply;
  if (!net::request_line(registry_ep_.port, "epoch", timeout_ms_, reply,
                         err))
    return false;
  const std::vector<std::string> words = support::split_ws(reply);
  std::uint64_t remote = 0;
  if (words.size() != 2 || words[0] != "epoch" || !parse_u64(words[1], remote)) {
    if (err) *err = "malformed epoch reply: " + reply;
    return false;
  }
  if (remote == cache_.epoch) return true;
  return fetch(err);
}

bool RegistryClient::command(const std::string& line, std::string* why) {
  std::string reply;
  if (!net::request_line(registry_ep_.port, line, timeout_ms_, reply, why))
    return false;
  if (reply.rfind("ok", 0) == 0) return true;
  if (why) *why = reply;
  return false;
}

bool RegistryClient::lead(std::size_t shard, const repl::Endpoint& leader,
                          std::uint16_t ship_port, std::uint64_t known_epoch,
                          std::string* why) {
  return command("lead " + std::to_string(shard) + " " + leader.to_string() +
                     " " + std::to_string(ship_port) + " " +
                     std::to_string(known_epoch),
                 why);
}

bool RegistryClient::follow(std::size_t shard, const repl::Endpoint& ep,
                            std::string* why) {
  return command("follow " + std::to_string(shard) + " " + ep.to_string(),
                 why);
}

}  // namespace ilc::cluster
