#include "cluster/health.hpp"

#include "net/blocking.hpp"
#include "support/failpoint.hpp"

namespace ilc::cluster {

const char* to_string(Health h) {
  switch (h) {
    case Health::Healthy: return "healthy";
    case Health::Suspect: return "suspect";
    case Health::Down: return "down";
    case Health::Recovering: return "recovering";
  }
  return "?";
}

bool ping_probe(const repl::Endpoint& ep, int timeout_ms) {
  // Fault injection: "cluster.probe" (error kind) is the probe packet
  // lost / endpoint frozen — the deterministic leader-death of the tests.
  if (support::failpoint("cluster.probe")) return false;
  std::string reply;
  if (!net::request_line(ep.port, "ping", timeout_ms, reply)) return false;
  return reply.rfind("ok pong", 0) == 0;
}

HealthMonitor::HealthMonitor(HealthOptions opts) : opts_(std::move(opts)) {
  if (!opts_.probe) {
    const int timeout = opts_.probe_timeout_ms;
    opts_.probe = [timeout](const repl::Endpoint& ep) {
      return ping_probe(ep, timeout);
    };
  }
  obs::Registry& reg =
      opts_.registry ? *opts_.registry : obs::Registry::instance();
  const std::string& p = opts_.metric_prefix;
  probes_ = reg.counter(p + ".probes");
  probe_failures_ = reg.counter(p + ".probe_failures");
  transitions_down_ = reg.counter(p + ".mark_down");
  transitions_up_ = reg.counter(p + ".mark_up");
}

void HealthMonitor::add(const repl::Endpoint& ep) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slot& s : slots_)
    if (s.ep == ep) return;
  Slot slot;
  slot.ep = ep;
  obs::Registry& reg =
      opts_.registry ? *opts_.registry : obs::Registry::instance();
  slot.gauge =
      reg.gauge(opts_.metric_prefix + ".health." + ep.to_string());
  slot.gauge.set(static_cast<std::int64_t>(Health::Healthy));
  slots_.push_back(std::move(slot));
}

void HealthMonitor::watch(repl::Router* router) {
  std::lock_guard<std::mutex> lock(mu_);
  router_ = router;
}

void HealthMonitor::on_change(StateChange fn) {
  std::lock_guard<std::mutex> lock(mu_);
  on_change_ = std::move(fn);
}

Health HealthMonitor::state(const repl::Endpoint& ep) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slot& s : slots_)
    if (s.ep == ep) return s.state;
  return Health::Down;  // unknown = not servable
}

std::vector<std::pair<repl::Endpoint, Health>> HealthMonitor::states() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<repl::Endpoint, Health>> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) out.emplace_back(s.ep, s.state);
  return out;
}

void HealthMonitor::apply_locked(std::size_t i, bool ok,
                                 std::vector<Transition>& out) {
  Slot& s = slots_[i];
  const Health before = s.state;
  if (ok) {
    s.fails = 0;
    switch (s.state) {
      case Health::Healthy:
        break;
      case Health::Suspect:
        // One good probe clears suspicion — it never stopped serving.
        s.state = Health::Healthy;
        break;
      case Health::Down:
        s.state = Health::Recovering;
        s.oks = 1;
        if (s.oks >= opts_.up_after) s.state = Health::Healthy;
        break;
      case Health::Recovering:
        if (++s.oks >= opts_.up_after) s.state = Health::Healthy;
        break;
    }
  } else {
    s.oks = 0;
    probe_failures_.add(1);
    switch (s.state) {
      case Health::Healthy:
        s.fails = 1;
        s.state = s.fails >= opts_.down_after ? Health::Down
                                              : Health::Suspect;
        break;
      case Health::Suspect:
        if (++s.fails >= opts_.down_after) s.state = Health::Down;
        break;
      case Health::Recovering:
        s.state = Health::Down;  // relapse: restart the up_after count
        break;
      case Health::Down:
        break;
    }
  }
  if (s.state != before) {
    s.gauge.set(static_cast<std::int64_t>(s.state));
    if (s.state == Health::Down) transitions_down_.add(1);
    if (s.state == Health::Healthy && before != Health::Suspect)
      transitions_up_.add(1);
    out.push_back({s.ep, before, s.state});
  }
}

void HealthMonitor::probe_all_once() {
  // Probe without the lock (IO), then apply results under it, then
  // deliver transitions outside it again (the Router has its own lock;
  // a callback may re-enter the monitor).
  std::vector<repl::Endpoint> eps;
  std::function<bool(const repl::Endpoint&)> probe;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slot& s : slots_) eps.push_back(s.ep);
    probe = opts_.probe;
  }
  std::vector<bool> results(eps.size());
  for (std::size_t i = 0; i < eps.size(); ++i) {
    probes_.add(1);
    results[i] = probe(eps[i]);
  }

  std::vector<Transition> transitions;
  repl::Router* router = nullptr;
  StateChange on_change;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < eps.size(); ++i)
      for (std::size_t k = 0; k < slots_.size(); ++k)
        if (slots_[k].ep == eps[i]) {
          apply_locked(k, results[i], transitions);
          break;
        }
    router = router_;
    on_change = on_change_;
  }

  for (const Transition& t : transitions) {
    if (router) {
      if (t.to == Health::Down) router->set_down(t.ep);
      if (t.to == Health::Healthy) router->set_up(t.ep);
    }
    if (on_change) on_change(t.ep, t.from, t.to);
  }
}

}  // namespace ilc::cluster
