#include "cluster/scatter.hpp"

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "net/blocking.hpp"
#include "support/string_utils.hpp"

namespace ilc::cluster {

ScatterClient::ScatterClient(repl::Router& router, ScatterOptions opts)
    : router_(&router), opts_(std::move(opts)) {
  obs::Registry& reg =
      opts_.registry ? *opts_.registry : obs::Registry::instance();
  const std::string& p = opts_.metric_prefix;
  queries_ = reg.counter(p + ".scatter.queries");
  partials_ = reg.counter(p + ".scatter.partial");
  shard_errors_ = reg.counter(p + ".scatter.shard_errors");
}

ShardReply ScatterClient::query_shard(std::size_t shard,
                                      const std::string& line) {
  ShardReply reply;
  reply.shard = shard;
  // Two passes: the routed endpoint, then — after marking a failure
  // down — whatever the Router re-routes to (a follower, typically).
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto route = router_->route_shard(shard);
    if (!route) {
      if (reply.error.empty()) reply.error = "no healthy endpoint";
      return reply;
    }
    if (attempt > 0 && route->endpoint == reply.endpoint) {
      // Re-route landed on the endpoint that just failed; don't loop.
      return reply;
    }
    reply.endpoint = route->endpoint;
    reply.read_only = route->read_only;
    std::string err;
    if (net::request_line(route->endpoint.port, line, opts_.timeout_ms,
                          reply.line, &err)) {
      reply.ok = true;
      reply.error.clear();
      return reply;
    }
    reply.error = route->endpoint.to_string() + ": " + err;
    router_->set_down(route->endpoint);  // scatter as passive health signal
  }
  return reply;
}

ScatterResult ScatterClient::query(const std::string& line) {
  queries_.add(1);
  const std::size_t n = router_->shard_count();
  ScatterResult result;
  result.replies.resize(n);

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    threads.emplace_back([this, s, &line, &result] {
      result.replies[s] = query_shard(s, line);
    });
  for (std::thread& t : threads) t.join();

  for (const ShardReply& r : result.replies) {
    if (r.ok)
      ++result.responded;
    else
      shard_errors_.add(1);
  }
  result.partial = result.responded < n;
  if (result.partial) partials_.add(1);
  return result;
}

std::string ScatterClient::merge_metrics(const ScatterResult& result) {
  std::vector<std::string> order;
  std::vector<double> sums;
  for (const ShardReply& r : result.replies) {
    if (!r.ok) continue;
    const std::vector<std::string> words = support::split_ws(r.line);
    for (const std::string& w : words) {
      const auto eq = w.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = w.substr(0, eq);
      char* end = nullptr;
      const double v = std::strtod(w.c_str() + eq + 1, &end);
      if (end == nullptr || *end != '\0') continue;  // non-numeric value
      std::size_t k = 0;
      while (k < order.size() && order[k] != key) ++k;
      if (k == order.size()) {
        order.push_back(key);
        sums.push_back(0.0);
      }
      sums[k] += v;
    }
  }
  std::string out = "metrics";
  for (std::size_t k = 0; k < order.size(); ++k) {
    const double v = sums[k];
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)))
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    else
      std::snprintf(buf, sizeof buf, "%g", v);
    out += " " + order[k] + "=" + buf;
  }
  if (result.partial)
    out += " partial=1 responded=" + std::to_string(result.responded) + "/" +
           std::to_string(result.replies.size());
  return out;
}

}  // namespace ilc::cluster
