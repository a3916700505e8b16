// tuner_bench — end-to-end benchmark of the tuner through its public APIs
// (svc::TuningService, net::Server), with a traced per-layer split.
//
//   tuner_bench run --workload <ga_adpcm|cold_suite|warm_serve> --seed N
//                   --seconds S --trace 0|1 --work DIR
//   tuner_bench prepare --seed N --work DIR      (warm_serve's KB; run.py
//                                                 never calls this directly)
//
// Every request is generated from --seed as a protocol line; the service
// sees only those lines. After the timed phase every distinct answer is
// re-applied and re-simulated (answer verification). The last stdout line
// is one JSON object; the lines before it are the human-readable report:
// "metric <workload> <name> <value> <unit> n=<samples>".
//
// Workloads (why each was chosen is recorded in BENCHMARK.json):
//   ga_adpcm   one client, closed loop; a fresh default service (in-memory
//              KB, search_workers=1) per pass; genetic budget=6000 on adpcm
//              for {amd, c6713} x {cycles, size, pareto}.
//   cold_suite two clients, closed loop; per pass a fresh durable KB
//              (workers=2, autosave), every one of the 102 suite keys as a
//              budget=20 random search, in seeded order.
//   warm_serve four TCP connections to an in-process net::Server (1 event
//              loop), closed loop; keys drawn with skewed popularity from the
//              102 suite keys, all warm hits on a KB primed by real searches
//              plus synthetic answers. Read-only on purpose: a warm request
//              queued behind a cold search on the same connection waits for
//              it, which made tail latency swing tenfold between runs.
//
// No timed request uploads inline IR: ir::to_string drops global
// initializers, so printed IR does not round-trip (the audit below counts
// the programs it breaks).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ir/fingerprint.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/pass.hpp"
#include "search/evaluator.hpp"
#include "search/space.hpp"
#include "sim/interpreter.hpp"
#include "sim/machine.hpp"
#include "sim/program_cache.hpp"
#include "support/rng.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "workloads/workloads.hpp"

namespace fs = std::filesystem;
using namespace ilc;

namespace {

using Clock = std::chrono::steady_clock;

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU time of the calling thread.
double thread_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated percentile of `v` (sorted in place), p in [0, 100].
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

double value_or_0(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

// ---- the request set --------------------------------------------------------

const char* const kMachines[] = {"amd", "c6713"};
const char* const kObjectives[] = {"cycles", "size", "pareto"};

sim::MachineConfig machine_named(const std::string& name) {
  return name == "amd" ? sim::amd_like() : sim::c6713_like();
}

struct Key {
  std::string program;
  std::string machine;
  std::string objective;
  std::uint64_t seed = 0;  // one per (program, machine): objectives share it
  std::string line;        // the protocol request
};

/// Every (program x machine x objective) key of the suite as a budget=20
/// random search. Each (program, machine) pair draws one request seed from
/// the workload seed, so its three objective requests search the same
/// candidates.
std::vector<Key> suite_keys(std::uint64_t seed) {
  support::Rng rng(seed ^ 0x7475'6e65'7262'656eULL);
  std::vector<Key> keys;
  for (const std::string& p : wl::workload_names()) {
    for (const char* m : kMachines) {
      const std::uint64_t s = rng.next_u64() >> 1;
      for (const char* o : kObjectives) {
        Key k{p, m, o, s, ""};
        k.line = "tune " + p + " machine=" + m + " objective=" + o +
                 " strategy=random budget=20 seed=" + std::to_string(s);
        keys.push_back(std::move(k));
      }
    }
  }
  return keys;
}

constexpr std::size_t kGaPassKeys = 6;  // {amd, c6713} x {cycles, size, pareto}
constexpr std::size_t kGaMaxPasses = 64;

/// ga_adpcm's requests, pass after pass: every (machine, objective) key of
/// every pass draws its own seed. One GA trajectory's cost depends on where
/// it converges, so a run averages over its ~30 trajectories; with the same
/// six seeds in every pass the seed, not the code, set a run's speed.
std::vector<Key> ga_keys(std::uint64_t seed) {
  support::Rng rng(seed ^ 0x4741'5f61'6470'636dULL);
  std::vector<Key> keys;
  for (std::size_t pass = 0; pass < kGaMaxPasses; ++pass)
    for (const char* m : kMachines)
      for (const char* o : kObjectives) {
        Key k{"adpcm", m, o, rng.next_u64() >> 1, ""};
        k.line = std::string("tune adpcm machine=") + m + " objective=" + o +
                 " strategy=genetic budget=6000 seed=" + std::to_string(k.seed);
        keys.push_back(std::move(k));
      }
  return keys;
}

svc::TuningRequest request_of(const Key& k) {
  svc::Command c = svc::parse_command(k.line);
  if (c.kind != svc::Command::Kind::Tune)
    throw std::runtime_error("bad request line: " + k.line);
  return c.request;
}

// ---- replies ----------------------------------------------------------------

struct Reply {
  std::size_t key = 0;
  double latency_us = 0;  // client-observed, send to reply
  std::string line;
};

/// Value of `name=` in a response line ("" when absent).
std::string field(const std::string& line, const std::string& name) {
  const std::string tag = " " + name + "=";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  std::size_t b = at + tag.size();
  if (b < line.size() && line[b] == '"') {
    const std::size_t e = line.find('"', b + 1);
    return line.substr(b + 1, e == std::string::npos ? e : e - b - 1);
  }
  const std::size_t e = line.find(' ', b);
  return line.substr(b, e == std::string::npos ? e : e - b);
}

/// The answer part of a response: everything but the per-request sims=
/// and latency_us= fields, which legitimately differ between replies.
std::string answer_of(const std::string& line) {
  std::string out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t e = line.find(' ', pos);
    if (e == std::string::npos) e = line.size();
    const std::string tok = line.substr(pos, e - pos);
    if (tok.rfind("sims=", 0) != 0 && tok.rfind("latency_us=", 0) != 0) {
      if (!out.empty()) out += ' ';
      out += tok;
    }
    pos = e + 1;
  }
  return out;
}

/// reference_ms() on the host the benchmark was sized on, in its fast state:
/// gated times are reported as if measured at this reference speed.
constexpr double kReferenceMs = 0.6;

/// The host's speed right now: the best of three runs of a fixed kernel
/// that runs no tuner code (xorshift draws into a hash map, then a sort),
/// about 0.6 ms. The host this was sized on switches between two speeds
/// about 1.5x apart every few seconds to minutes; the gated metrics are
/// scaled by this reference, measured through the same phase, so that they
/// follow the code and not the host's state.
double reference_ms() {
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    std::vector<std::uint64_t> draws;
    for (std::uint64_t i = 0; i < 6000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      counts[x & 0xfff] += i;
      draws.push_back(x);
    }
    std::sort(draws.begin(), draws.end());
    std::uint64_t sink = draws[draws.size() / 2];
    for (const auto& kv : counts) sink += kv.second;
    const double ms = secs_between(t0, Clock::now()) * 1e3;
    best = std::min(best, sink == 0 ? ms + 1e-9 : ms);  // sink keeps the work
  }
  return best;
}

/// A timed phase. Rates are totals over the summed windows (a pass on
/// ga_adpcm and cold_suite, the whole phase on warm_serve), not medians
/// over windows: this host switches between a fast and a slow speed every
/// few seconds, and a median over windows jumps between the two states
/// where a total weighs them.
struct Phase {
  std::vector<Reply> replies;
  std::size_t attempted = 0;
  double window_s = 0;     // summed request windows (pass resets excluded)
  double cpu_s = 0;        // process CPU inside those windows
  double evaluations = 0;  // GA evaluations (registry delta)
  std::vector<double> ref_ms;  // reference_ms() samples through the phase

  void merge(Phase&& o) {
    for (Reply& r : o.replies) replies.push_back(std::move(r));
    ref_ms.insert(ref_ms.end(), o.ref_ms.begin(), o.ref_ms.end());
    attempted += o.attempted;
    window_s += o.window_s;
    cpu_s += o.cpu_s;
    evaluations += o.evaluations;
  }
};

/// Counter values and histogram sums/counts of the process registry, so a
/// traced run can sum deltas over its traced slices only.
struct RegistryTotals {
  std::map<std::string, double> counters, hist_sum, hist_count;

  void add_delta(const RegistryTotals& after, const RegistryTotals& before) {
    const auto diff = [](std::map<std::string, double>& into,
                         const std::map<std::string, double>& a,
                         const std::map<std::string, double>& b) {
      for (const auto& [k, v] : a) into[k] += v - value_or_0(b, k);
    };
    diff(counters, after.counters, before.counters);
    diff(hist_sum, after.hist_sum, before.hist_sum);
    diff(hist_count, after.hist_count, before.hist_count);
  }
  double counter(const std::string& n) const { return value_or_0(counters, n); }
  double sum(const std::string& n) const { return value_or_0(hist_sum, n); }
  double count(const std::string& n) const { return value_or_0(hist_count, n); }
  double mean(const std::string& n) const {
    return count(n) > 0 ? sum(n) / count(n) : 0.0;
  }
};

RegistryTotals registry_totals() {
  const obs::RegistrySnapshot snap = obs::Registry::instance().snapshot();
  RegistryTotals t;
  for (const obs::CounterValue& c : snap.counters)
    t.counters[c.name] = static_cast<double>(c.value);
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    t.hist_sum[h.name] = static_cast<double>(h.sum);
    t.hist_count[h.name] = static_cast<double>(h.count);
  }
  return t;
}

// ---- the suite --------------------------------------------------------------

struct Suite {
  std::map<std::string, wl::Workload> by_name;
  Suite() {
    for (wl::Workload& w : wl::make_suite()) {
      std::string n = w.name;
      by_name.emplace(std::move(n), std::move(w));
    }
  }
  const wl::Workload& at(const std::string& n) const { return by_name.at(n); }
};

// ---- answer verification ----------------------------------------------------

struct Verdict {
  std::size_t distinct = 0;
  std::size_t wrong = 0;       // replies that disagree with the verified answer
  std::size_t errors = 0;      // `err` replies
  double speedup_geomean = 0;  // baseline / best over distinct answers
};

/// Re-apply one served config to its named program and simulate it: the
/// return value must equal the golden checksum, the objective metric must
/// equal the reported best, and the -O0 run must equal the reported base.
std::string verify_answer(const Suite& suite, const Key& k,
                          const std::string& line) {
  const wl::Workload& w = suite.at(k.program);
  const sim::MachineConfig cfg = machine_named(k.machine);
  const std::string config = field(line, "config");
  const auto metric = [&](const ir::Module& m) -> std::pair<std::int64_t,
                                                            std::uint64_t> {
    sim::Simulator s(m, cfg);
    const sim::RunResult rr = s.run();
    return {rr.ret, k.objective == "size" ? m.code_size() : rr.cycles};
  };
  try {
    ir::Module tuned = w.module;
    opt::run_sequence(tuned, search::sequence_from_string(config));
    const auto [ret, best] = metric(tuned);
    const auto [ret0, base] = metric(w.module);
    if (ret != w.expected_checksum)
      return "checksum " + std::to_string(ret) + " != golden " +
             std::to_string(w.expected_checksum);
    if (ret0 != w.expected_checksum) return "-O0 checksum differs from golden";
    if (std::to_string(best) != field(line, "best"))
      return "best " + field(line, "best") + " but re-simulated " +
             std::to_string(best);
    if (std::to_string(base) != field(line, "base"))
      return "base " + field(line, "base") + " but -O0 runs " +
             std::to_string(base);
  } catch (const std::exception& e) {
    return std::string("re-simulation failed: ") + e.what();
  }
  return "";
}

Verdict verify(const Suite& suite, const std::vector<Key>& keys,
               const std::vector<Reply>& replies) {
  Verdict v;
  std::map<std::size_t, std::string> first;  // key -> answer text
  std::map<std::size_t, bool> good;
  double log_sum = 0;
  for (const Reply& r : replies) {
    if (r.line.rfind("ok ", 0) != 0) {
      ++v.errors;
      std::printf("error key=\"%s\" reply=\"%s\"\n", keys[r.key].line.c_str(),
                  r.line.c_str());
      continue;
    }
    const std::string ans = answer_of(r.line);
    const auto [it, fresh] = first.emplace(r.key, ans);
    if (fresh) {
      const std::string why = verify_answer(suite, keys[r.key], r.line);
      good[r.key] = why.empty();
      if (!why.empty())
        std::printf("wrong key=\"%s\" config=\"%s\": %s\n",
                    keys[r.key].line.c_str(), field(r.line, "config").c_str(),
                    why.c_str());
      const double base = std::stod(field(r.line, "base"));
      const double best = std::stod(field(r.line, "best"));
      log_sum += std::log(best > 0 ? base / best : 1.0);
    }
    if (!good[r.key]) {
      ++v.wrong;
    } else if (ans != it->second) {
      ++v.wrong;
      std::printf("mismatch key=\"%s\" config=\"%s\": \"%s\" vs \"%s\"\n",
                  keys[r.key].line.c_str(), field(r.line, "config").c_str(),
                  ans.c_str(), it->second.c_str());
    }
  }
  v.distinct = first.size();
  v.speedup_geomean =
      first.empty() ? 0 : std::exp(log_sum / static_cast<double>(first.size()));
  return v;
}

// ---- IR text round-trip audit ----------------------------------------------

/// Print, parse and run at -O0 every stock program; count the ones whose
/// result differs from the golden checksum (or that fail to parse or run).
std::size_t roundtrip_mismatches(const Suite& suite) {
  std::size_t bad = 0;
  for (const auto& [name, w] : suite.by_name) {
    std::string why;
    try {
      const ir::Module m = ir::parse_module(ir::to_string(w.module));
      sim::Simulator s(m, sim::amd_like());
      const std::int64_t ret = s.run().ret;
      if (ret != w.expected_checksum)
        why = "returns " + std::to_string(ret) + ", golden " +
              std::to_string(w.expected_checksum);
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (!why.empty()) {
      ++bad;
      std::printf("roundtrip %s: %s\n", name.c_str(), why.c_str());
    }
  }
  return bad;
}

// ---- service-direct workloads ----------------------------------------------

obs::Counter ga_evaluations() {
  return obs::Registry::instance().counter("search.ga.evaluations");
}

/// ga_adpcm: one closed-loop client, a fresh default service per pass;
/// `pass` counts the passes run so far in this process.
Phase run_ga(const std::vector<Key>& keys, double seconds, std::size_t& pass) {
  Phase ph;
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t evals0 = ga_evaluations().value();
  do {
    if (pass == kGaMaxPasses) throw std::runtime_error("ga_adpcm: out of passes");
    sim::ProgramCache::instance().clear();
    svc::TuningService service{svc::TuningService::Options{}};
    const std::size_t first = kGaPassKeys * pass++;
    for (std::size_t i = first; i < first + kGaPassKeys; ++i) {
      // One closed-loop client: the window is the requests themselves, and
      // the host-speed samples between them stay outside it.
      ph.ref_ms.push_back(reference_ms());
      const double c0 = cpu_seconds();
      const Clock::time_point s = Clock::now();
      const svc::TuningResponse r = service.tune(request_of(keys[i]));
      const Clock::time_point e = Clock::now();
      ph.cpu_s += cpu_seconds() - c0;
      ph.window_s += secs_between(s, e);
      ph.replies.push_back({i, secs_between(s, e) * 1e6,
                            svc::format_response(r)});
      ++ph.attempted;
    }
  } while (secs_between(t0, Clock::now()) < seconds);
  ph.evaluations = static_cast<double>(ga_evaluations().value() - evals0);
  return ph;
}

svc::TuningService::Options durable_options(const fs::path& dir) {
  // tuning_server's defaults: two workers, durable KB, autosave.
  svc::TuningService::Options o;
  o.workers = 2;
  o.kb_path = dir.string();
  o.autosave = true;
  return o;
}

/// Send every key once through `service` from two closed-loop client
/// threads (a build running two compile jobs), in `order`.
void closed_loop_pass(svc::TuningService& service, const std::vector<Key>& keys,
                      const std::vector<std::size_t>& order, Phase& ph) {
  constexpr unsigned clients = 2;
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Reply>> per(clients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i; (i = next.fetch_add(1)) < order.size();) {
        const Key& k = keys[order[i]];
        const Clock::time_point s = Clock::now();
        const svc::TuningResponse r = service.tune(request_of(k));
        const Clock::time_point e = Clock::now();
        per[c].push_back({order[i], secs_between(s, e) * 1e6,
                          svc::format_response(r)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per)
    for (Reply& r : v) ph.replies.push_back(std::move(r));
  ph.attempted += order.size();
}

/// cold_suite: per pass a fresh KB directory and decoded-program cache,
/// every key once, two closed-loop clients.
Phase run_cold(const std::vector<Key>& keys, double seconds,
               const fs::path& work, support::Rng& rng) {
  Phase ph;
  const Clock::time_point t0 = Clock::now();
  std::size_t pass = 0;
  do {
    const fs::path dir = work / ("cold-kb-" + std::to_string(pass++));
    fs::remove_all(dir);
    std::vector<std::size_t> order(keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    ph.ref_ms.push_back(reference_ms());
    sim::ProgramCache::instance().clear();
    {
      svc::TuningService service(durable_options(dir));
      const double c0 = cpu_seconds();
      const Clock::time_point w0 = Clock::now();
      closed_loop_pass(service, keys, order, ph);
      ph.window_s += secs_between(w0, Clock::now());
      ph.cpu_s += cpu_seconds() - c0;
    }
    fs::remove_all(dir);
  } while (secs_between(t0, Clock::now()) < seconds);
  return ph;
}

// ---- warm_serve -------------------------------------------------------------

constexpr std::size_t kSyntheticAnswers = 100000;

/// Fill `dir` with the warm_serve knowledge base: the 102 suite answers
/// from real searches (a cold_suite pass), then synthetic answers for other
/// fingerprints written through svc::ResultCache.
int prepare(const std::vector<Key>& keys, std::uint64_t seed,
            const fs::path& dir) {
  fs::remove_all(dir);
  {
    svc::TuningService service(durable_options(dir));
    Phase ph;
    std::vector<std::size_t> order(keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    closed_loop_pass(service, keys, order, ph);
    for (const Reply& r : ph.replies)
      if (r.line.rfind("ok ", 0) != 0) {
        std::fprintf(stderr, "priming failed: %s -> %s\n",
                     keys[r.key].line.c_str(), r.line.c_str());
        return 1;
      }
  }
  kbstore::Options kopts;
  kopts.flush = kbstore::Options::Flush::Batched;
  auto cache = svc::ResultCache::open_durable(dir.string(), kopts);
  if (!cache) return 1;
  support::Rng rng(seed ^ 0x5359'4e54'4845'5449ULL);
  const search::SequenceSpace space;
  for (std::size_t i = 0; i < kSyntheticAnswers; ++i) {
    svc::CachedResult r;
    r.config = search::sequence_to_string(space.sample(rng));
    r.baseline_metric = 1000 + rng.next_below(1'000'000);
    r.best_metric = 1 + r.baseline_metric / 2 + rng.next_below(r.baseline_metric / 2);
    const auto obj = static_cast<search::Objective>(i % 3);
    cache->store(svc::ResultCache::key(rng.next_u64(), obj), kMachines[i % 2],
                 r);
  }
  return cache->sync() ? 0 : 1;
}

/// Blocking loopback client connection speaking the line protocol.
class Client {
 public:
  explicit Client(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  int fd() const { return fd_; }

  /// Send one request line; false when the connection broke.
  bool send_line(const std::string& line) {
    const std::string msg = line + "\n";
    for (std::size_t off = 0; off < msg.size();) {
      const ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// The next complete response line received so far, if any.
  std::optional<std::string> next_line() {
    const std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) return std::nullopt;
    std::string out = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return out;
  }

  /// One recv(2) into the buffer; false when the connection broke.
  bool receive() {
    char tmp[4096];
    const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }

  /// Send one request line and wait for its response line; nullopt when
  /// the connection broke.
  std::optional<std::string> call(const std::string& line) {
    if (!send_line(line)) return std::nullopt;
    for (;;) {
      if (std::optional<std::string> out = next_line()) return out;
      if (!receive()) return std::nullopt;
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// warm_serve's timed phase: four closed-loop connections with one
/// outstanding request each, driven by one client thread that busy-polls
/// them. The client never sleeps, so a reply is not delayed by waking a
/// halted virtual CPU, which at this latency scale made the host's load,
/// not the server, set the tail. The client's own CPU is not counted in
/// cpu_s: the figure is the server's.
/// Keys follow Zipf popularity over a seeded ranking of the suite keys, and
/// the ranking is re-drawn every kRankSpan requests: which program is hot
/// decides the cost of a request (mcf_lite and phased_mix take ten times
/// the median to build), so one ranking per run would make the seed, not
/// the code, set the run's throughput.
Phase run_warm(const std::vector<Key>& keys, double seconds, std::uint16_t port,
               support::Rng& rng) {
  constexpr std::size_t kConns = 4;
  constexpr std::size_t kRankSpan = 256;
  std::vector<double> weights(keys.size());
  for (std::size_t r = 0; r < weights.size(); ++r)
    weights[r] = 1.0 / static_cast<double>(r + 1);
  std::vector<std::size_t> ranked(keys.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
  std::size_t drawn = 0;

  struct Conn {
    std::unique_ptr<Client> client;
    std::size_t key = 0;
    Clock::time_point sent;
    bool busy = false;
  };
  Phase ph;
  std::vector<Conn> conns(kConns);
  const auto send_next = [&](Conn& c) {
    if (drawn++ % kRankSpan == 0) rng.shuffle(ranked);
    c.key = ranked[rng.next_weighted(weights)];
    ++ph.attempted;
    c.sent = Clock::now();
    c.busy = c.client->send_line(keys[c.key].line);
  };

  // Requests still in flight at the deadline finish inside the window.
  const double c0 = cpu_seconds() - thread_cpu_seconds();
  const Clock::time_point w0 = Clock::now();
  const Clock::time_point deadline =
      w0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  for (Conn& c : conns) {
    try {
      c.client = std::make_unique<Client>(port);
    } catch (const std::exception&) {
      ++ph.attempted;  // the connection itself failed: one missing reply
      continue;
    }
    send_next(c);
  }
  std::vector<pollfd> fds(kConns);
  Clock::time_point next_ref = w0;
  for (;;) {
    if (Clock::now() >= next_ref) {
      // The four requests in flight finish meanwhile; their replies wait
      // the kernel's ~2 ms: eight requests a second, 0.07% of them.
      ph.ref_ms.push_back(reference_ms());
      next_ref += std::chrono::milliseconds(500);
    }
    std::size_t n = 0;
    for (const Conn& c : conns)
      if (c.busy) fds[n++] = {c.client->fd(), POLLIN, 0};
    if (n == 0) break;
    if (::poll(fds.data(), n, 0) == 0) continue;
    for (Conn& c : conns) {
      if (!c.busy) continue;
      const auto ready = std::find_if(fds.begin(), fds.begin() + n,
                                      [&](const pollfd& f) {
                                        return f.fd == c.client->fd();
                                      });
      if (ready == fds.begin() + n || ready->revents == 0) continue;
      if (!c.client->receive()) {
        c.busy = false;  // broken: attempted, never answered
        continue;
      }
      if (std::optional<std::string> line = c.client->next_line()) {
        const Clock::time_point e = Clock::now();
        ph.replies.push_back({c.key, secs_between(c.sent, e) * 1e6, *line});
        c.busy = false;
        if (e < deadline) send_next(c);
      }
    }
  }
  ph.window_s = secs_between(w0, Clock::now());
  ph.cpu_s = cpu_seconds() - thread_cpu_seconds() - c0;
  return ph;
}

// ---- traced-run analysis ----------------------------------------------------

struct SpanStats {
  std::map<std::string, double> total_us;  // summed durations by name
  std::map<std::string, double> self_us;   // summed self time by name
  std::map<std::string, double> count;
  std::map<std::string, std::vector<double>> durs;
  double eval_minus_sim_us = 0;  // svc.eval minus its search.simulate spans

  double n(const std::string& k) const { return value_or_0(count, k); }
  double mean_us(const std::string& k) const {
    return n(k) > 0 ? value_or_0(total_us, k) / n(k) : 0.0;
  }
  double self_mean_us(const std::string& k) const {
    return n(k) > 0 ? value_or_0(self_us, k) / n(k) : 0.0;
  }
  double pct_us(const std::string& k, double p) const {
    const auto it = durs.find(k);
    if (it == durs.end()) return 0.0;
    std::vector<double> v = it->second;
    return percentile(v, p);
  }
};

/// Self time = a span's duration minus the part of it that its children on
/// the same thread cover. Children on other threads (the queue wait, the
/// worker's run) are other work, not part of this span's busy time.
SpanStats span_stats(const std::vector<obs::SpanRecord>& recs) {
  SpanStats st;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < recs.size(); ++i) by_id[recs[i].span_id] = i;
  std::vector<double> covered(recs.size(), 0.0);
  std::vector<double> sim_inside(recs.size(), 0.0);
  for (const obs::SpanRecord& r : recs) {
    if (r.parent_id == 0) continue;
    const auto it = by_id.find(r.parent_id);
    if (it == by_id.end()) continue;
    const obs::SpanRecord& p = recs[it->second];
    if (p.tid != r.tid) continue;
    const double lo = static_cast<double>(std::max(p.start_us, r.start_us));
    const double hi = static_cast<double>(
        std::min(p.start_us + p.dur_us, r.start_us + r.dur_us));
    if (hi > lo) covered[it->second] += hi - lo;
  }
  // search.simulate time nested (at any depth, same thread) in svc.eval.
  for (const obs::SpanRecord& r : recs) {
    if (r.name != "search.simulate") continue;
    std::uint64_t up = r.parent_id;
    for (int depth = 0; up != 0 && depth < 8; ++depth) {
      const auto it = by_id.find(up);
      if (it == by_id.end() || recs[it->second].tid != r.tid) break;
      if (recs[it->second].name == "svc.eval") {
        sim_inside[it->second] += static_cast<double>(r.dur_us);
        break;
      }
      up = recs[it->second].parent_id;
    }
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const obs::SpanRecord& r = recs[i];
    const double d = static_cast<double>(r.dur_us);
    st.total_us[r.name] += d;
    st.self_us[r.name] += std::max(0.0, d - covered[i]);
    st.count[r.name] += 1;
    st.durs[r.name].push_back(d);
    if (r.name == "svc.eval") st.eval_minus_sim_us += d - sim_inside[i];
  }
  return st;
}

/// Per-call costs of the layers that have no span inside the program,
/// timed around their public functions on the workload's programs.
struct LayerModel {
  struct PerProgram {
    double build_us = 0;     // wl::make_workload (what svc.submit does)
    double fp_named_us = 0;  // ir::fingerprint of the named module
    double parse_us = 0;     // ir::parse_module of its printed text
    double copy_us = 0;      // candidate: module copy into a scratch module
    double seq_us = 0;       // candidate: the pass sequence
    double fp_us = 0;        // candidate: fingerprint of the optimized module
    double cand_us = 0;      // candidate: Evaluator::eval_sequence, memo hit
  };
  std::map<std::string, PerProgram> prog;
  std::vector<double> pass_us_sum = std::vector<double>(opt::kNumPasses, 0.0);
  std::vector<double> pass_runs = std::vector<double>(opt::kNumPasses, 0.0);
  std::vector<double> pass_changed = std::vector<double>(opt::kNumPasses, 0.0);
};

template <typename F>
double time_us(F&& f) {
  const Clock::time_point s = Clock::now();
  f();
  return secs_between(s, Clock::now()) * 1e6;
}

template <typename F>
double median_us(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(time_us(f));
  return median(v);
}

LayerModel measure_layers(const Suite& suite,
                          const std::vector<std::string>& programs,
                          std::uint64_t seed, unsigned candidates) {
  LayerModel lm;
  const search::SequenceSpace space;
  const opt::PassId extra[] = {opt::PassId::Prefetch, opt::PassId::PtrCompress,
                               opt::PassId::Reassoc};
  std::uint64_t sink = 0;
  for (const std::string& name : programs) {
    const ir::Module& base = suite.at(name).module;
    LayerModel::PerProgram& pp = lm.prog[name];
    pp.build_us = median_us(7, [&] { sink += wl::make_workload(name).module.code_size(); });
    pp.fp_named_us = median_us(7, [&] { sink += ir::fingerprint(base); });
    const std::string text = ir::to_string(base);
    pp.parse_us = median_us(7, [&] {
      try {
        sink += ir::parse_module(text).code_size();
      } catch (const std::exception&) {
      }
    });

    support::Rng rng(seed ^ std::hash<std::string>{}(name));
    search::Evaluator eval(base, sim::amd_like());
    ir::Module scratch;
    ir::Module extra_in;
    for (unsigned c = 0; c < candidates; ++c) {
      const std::vector<opt::PassId> seq = space.sample(rng);
      pp.copy_us += time_us([&] { scratch = base; });
      double seq_us = 0;
      for (const opt::PassId p : seq) {
        bool changed = false;
        const double us = time_us([&] { changed = opt::run_pass(p, scratch); });
        seq_us += us;
        const unsigned id = static_cast<unsigned>(p);
        lm.pass_us_sum[id] += us;
        lm.pass_runs[id] += 1;
        lm.pass_changed[id] += changed ? 1 : 0;
      }
      pp.seq_us += seq_us;
      pp.fp_us += time_us([&] { sink += ir::fingerprint(scratch); });
      // Passes outside the sequence space, each on the candidate's output.
      for (const opt::PassId p : extra) {
        extra_in = scratch;
        bool changed = false;
        const double us = time_us([&] { changed = opt::run_pass(p, extra_in); });
        const unsigned id = static_cast<unsigned>(p);
        lm.pass_us_sum[id] += us;
        lm.pass_runs[id] += 1;
        lm.pass_changed[id] += changed ? 1 : 0;
      }
      eval.eval_sequence(seq);  // memo miss: simulates once
      pp.cand_us += time_us([&] { sink += eval.eval_sequence(seq).cycles; });
    }
    const double n = candidates;
    pp.copy_us /= n;
    pp.seq_us /= n;
    pp.fp_us /= n;
    pp.cand_us /= n;
  }
  if (sink == 42) std::printf("\n");  // keep the timed calls observable
  return lm;
}

/// The layer probe: one ga_adpcm request through a net::Server over a fresh
/// durable KB, traced, then the same request untraced at 1, 2 and 4 search
/// workers (cold evaluator and program cache each time). It reaches every
/// layer, so a layer the workload itself never reaches reports the probe's
/// figure instead of a zero.
struct Probe {
  SpanStats st;
  RegistryTotals reg;
  double client_us = 0;  // the traced request, client-observed
  double open_s = 0;     // opening the service on an empty KB directory
  std::map<unsigned, double> wall_us;  // untraced, by search_workers
};

Probe run_probe(const Key& k, const fs::path& work) {
  Probe out;
  const fs::path dir = work / "probe-kb";
  for (const unsigned w : {0u, 1u, 2u, 4u}) {  // 0: the traced run, 1 worker
    fs::remove_all(dir);
    sim::ProgramCache::instance().clear();
    svc::TuningService::Options o = durable_options(dir);
    o.search_workers = std::max(w, 1u);
    const Clock::time_point t0 = Clock::now();
    svc::TuningService service(o);
    if (w == 0) out.open_s = secs_between(t0, Clock::now());
    net::ServerOptions so;
    so.loops = 1;
    net::Server server(service, so);
    Client conn(server.port());
    const RegistryTotals before = registry_totals();
    obs::Tracer::clear();
    obs::Tracer::set_enabled(w == 0);
    std::optional<std::string> reply;
    const double us = time_us([&] { reply = conn.call(k.line); });
    obs::Tracer::set_enabled(false);
    if (!reply || reply->rfind("ok ", 0) != 0)
      throw std::runtime_error("layer probe failed: " + k.line);
    if (w == 0) {
      out.st = span_stats(obs::Tracer::records());
      out.reg.add_delta(registry_totals(), before);
      out.client_us = us;
    } else {
      out.wall_us[w] = us;
    }
    obs::Tracer::clear();
  }
  fs::remove_all(dir);
  return out;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;
  bool defined = true;
  bool from_probe = false;  // the workload never reached this layer
};

void print_report(const std::string& workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (m.defined)
      std::printf("metric %s %s %.6g %s n=%zu%s\n", workload.c_str(),
                  m.name.c_str(), m.value, m.unit.c_str(), m.n,
                  m.from_probe ? " from=probe" : "");
    else
      std::printf("metric %s %s n/a %s n=0\n", workload.c_str(),
                  m.name.c_str(), m.unit.c_str());
  }
}

std::string json_result(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", ms[i].value);
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}}";
}

/// Latencies of the replies whose source= is `source` ("" = every reply).
std::vector<double> latencies(const Phase& ph, const std::string& source) {
  std::vector<double> v;
  for (const Reply& r : ph.replies)
    if (source.empty() || field(r.line, "source") == source)
      v.push_back(r.latency_us);
  return v;
}

/// Latency percentile, over the whole phase, of the replies whose source=
/// is `source` ("" = every reply). A p99 needs 1,000 of them to have ten
/// samples beyond it; the report notes when it has fewer.
Metric pct_metric(const std::string& name, const Phase& ph,
                  const std::string& source, double p, double scale,
                  const std::string& unit) {
  std::vector<double> v = latencies(ph, source);
  Metric m{name, 0, unit, v.size(), !v.empty()};
  if (m.defined) m.value = percentile(v, p) * scale;
  return m;
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work;
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work") a.work = v;
    else return std::nullopt;
  }
  if (a.work.empty() || (a.mode != "run" && a.mode != "prepare"))
    return std::nullopt;
  if (a.mode == "run" && a.workload != "ga_adpcm" &&
      a.workload != "cold_suite" && a.workload != "warm_serve")
    return std::nullopt;
  return a;
}

/// Run the prepare step in a child process, so the serving process's peak
/// RSS is not set by KB preparation. Called before any thread exists.
bool prepare_in_child(const Args& a) {
  const std::string seed = std::to_string(a.seed), work = a.work.string();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::execl("/proc/self/exe", "tuner_bench", "prepare", "--seed", seed.c_str(),
            "--work", work.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: tuner_bench run --workload "
                 "<ga_adpcm|cold_suite|warm_serve> --seed N --seconds S "
                 "--trace 0|1 --work DIR\n"
                 "       tuner_bench prepare --seed N --work DIR\n");
    return 2;
  }
  const Args& a = *parsed;
  fs::create_directories(a.work);
  const fs::path warm_kb = a.work / "warm-kb";
  const std::vector<std::string>& all_programs = wl::workload_names();

  if (a.mode == "prepare")
    return prepare(suite_keys(a.seed), a.seed, warm_kb);

  const std::string& wname = a.workload;
  const bool ga = wname == "ga_adpcm", cold = wname == "cold_suite",
             warm = wname == "warm_serve";
  // The first set-up counts from process start, minus KB preparation.
  Clock::time_point setup_start = process_start;
  if (warm) {
    const Clock::time_point p0 = Clock::now();
    if (!prepare_in_child(a)) {
      std::fprintf(stderr, "warm_serve: preparing the knowledge base failed\n");
      return 1;
    }
    setup_start += Clock::now() - p0;
  }
  const std::vector<std::string> programs =
      ga ? std::vector<std::string>{"adpcm"} : all_programs;
  const std::vector<Key> keys = ga ? ga_keys(a.seed) : suite_keys(a.seed);
  support::Rng order_rng(a.seed ^ 0x4f52'4445'5253'4545ULL);

  // ---- set-up, several times; the median is setup_s. Each repetition
  // builds the suite and opens the service (KB recovery on warm_serve) and,
  // on warm_serve, the listener.
  const int setup_reps = warm ? 5 : 15;
  std::vector<double> setup_s, recover_s, setup_ref_ms;
  std::unique_ptr<Suite> suite;
  std::unique_ptr<svc::TuningService> warm_service;
  std::unique_ptr<net::Server> server;
  double recovered_records = 0;
  obs::Counter recovery_records =
      obs::Registry::instance().counter("kbstore.recovery.records");
  for (int rep = 0; rep < setup_reps; ++rep) {
    server.reset();
    warm_service.reset();
    suite.reset();
    setup_ref_ms.push_back(reference_ms());
    const Clock::time_point s = rep == 0 ? setup_start : Clock::now();
    suite = std::make_unique<Suite>();
    const std::uint64_t rec0 = recovery_records.value();
    const Clock::time_point r0 = Clock::now();
    if (warm) {
      warm_service = std::make_unique<svc::TuningService>(
          durable_options(warm_kb));
      recover_s.push_back(secs_between(r0, Clock::now()));
      recovered_records = static_cast<double>(recovery_records.value() - rec0);
      net::ServerOptions so;
      so.loops = 1;
      server = std::make_unique<net::Server>(*warm_service, so);
    } else if (cold) {
      const fs::path dir = a.work / "setup-kb";
      fs::remove_all(dir);
      svc::TuningService probe(durable_options(dir));
      recover_s.push_back(secs_between(r0, Clock::now()));
    } else {
      svc::TuningService probe{svc::TuningService::Options{}};
      recover_s.push_back(0.0);
    }
    setup_s.push_back(secs_between(s, Clock::now()));
  }
  fs::remove_all(a.work / "setup-kb");

  std::size_t ga_pass = 0;
  const auto run_phase = [&](double seconds) {
    if (ga) return run_ga(keys, seconds, ga_pass);
    if (cold) return run_cold(keys, seconds, a.work, order_rng);
    return run_warm(keys, seconds, server->port(), order_rng);
  };

  std::printf("tunerbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "clients=%u loop=closed\n",
              wname.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, std::thread::hardware_concurrency(),
              ga ? 1u : cold ? 2u : 4u);

  // ---- the timed phase (tracing off). The traced run alternates untraced
  // and traced slices of the same shape (a pass; half a second on
  // warm_serve) for --seconds, so both see the same warm-up and noise; the
  // registry numbers are the deltas over the traced slices only.
  Phase ph, traced;
  std::vector<obs::SpanRecord> spans;
  RegistryTotals reg;
  if (!a.trace) {
    ph = run_phase(a.seconds);
  } else {
    const double slice = warm ? 0.5 : 0.0;  // 0 = exactly one pass
    obs::Tracer::set_ring_capacity(std::size_t{1} << 24);
    obs::Tracer::clear();
    const Clock::time_point t0 = Clock::now();
    do {
      ph.merge(run_phase(slice));
      const RegistryTotals before = registry_totals();
      obs::Tracer::set_enabled(true);
      traced.merge(run_phase(slice));
      obs::Tracer::set_enabled(false);
      reg.add_delta(registry_totals(), before);
    } while (secs_between(t0, Clock::now()) < a.seconds);
    spans = obs::Tracer::records();
    obs::Tracer::clear();
  }
  const double rss_mb = peak_rss_mb();

  // Keys the clients could not get an answer for are missing replies.
  const std::size_t missing = ph.attempted - ph.replies.size();
  if (server) server->shutdown();
  server.reset();
  warm_service.reset();

  // ---- answer verification (untimed) and the round-trip audit.
  std::vector<Reply> all = ph.replies;
  all.insert(all.end(), traced.replies.begin(), traced.replies.end());
  const Verdict v = verify(*suite, keys, all);
  const std::size_t roundtrip = roundtrip_mismatches(*suite);
  const std::size_t attempted = ph.attempted + traced.attempted;
  const std::size_t failed =
      v.errors + v.wrong + missing + (traced.attempted - traced.replies.size());

  std::printf("verification distinct=%zu wrong=%zu err=%zu missing=%zu "
              "roundtrip_mismatches=%zu/%zu\n",
              v.distinct, v.wrong, v.errors, missing, roundtrip,
              suite->by_name.size());

  // ---- end-to-end metrics (from the untraced phase). The raw figures are
  // as measured; the gated ones are them at the reference host speed. The
  // mean of the samples, not their median, weighs the host's two states.
  const auto mean_of = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double slow = mean_of(ph.ref_ms) / kReferenceMs;  // > 1: slower host
  const double setup_slow = mean_of(setup_ref_ms) / kReferenceMs;
  const double replies = static_cast<double>(ph.replies.size());
  const double raw_setup = median(setup_s);
  const double raw_rate = replies / ph.window_s;
  const double raw_cpu = ph.cpu_s * 1e3 / replies;
  const Metric p50 = pct_metric("raw_latency_p50_us", ph, "", 50, 1, "us");
  const Metric p99 = pct_metric("raw_latency_p99_us", ph, "", 99, 1, "us");
  double request_us = 0;
  for (const Reply& r : ph.replies) request_us += r.latency_us;
  const std::size_t n = ph.replies.size();

  const std::vector<Metric> e2e = {
      {"raw_setup_s", raw_setup, "s", setup_s.size()},
      {"evals_per_s", ph.evaluations / (request_us * 1e-6), "1/s", n, ga},
      pct_metric("tune_p50_ms", ph, "search", 50, 1e-3, "ms"),
      pct_metric("tune_p99_ms", ph, "search", 99, 1e-3, "ms"),
      pct_metric("warm_p50_us", ph, "warm", 50, 1, "us"),
      pct_metric("warm_p99_us", ph, "warm", 99, 1, "us"),
      {"raw_requests_per_s", raw_rate, "1/s", n},
      {"raw_cpu_ms_per_request", raw_cpu, "ms", n},
      {"speedup_geomean", v.speedup_geomean, "ratio", v.distinct},
      {"error_rate",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
       attempted},
      {"peak_rss_mb", rss_mb, "MB", 1},
      p50,
      p99,
      {"reference_ms", mean_of(ph.ref_ms), "ms", ph.ref_ms.size()},
      {"setup_s", raw_setup / setup_slow, "s", setup_s.size()},
      {"requests_per_s", raw_rate * slow, "1/s", n},
      {"latency_p50_us", p50.value / slow, "us", n},
      {"latency_p99_us", p99.value / slow, "us", n},
      {"cpu_ms_per_request", raw_cpu / slow, "ms", n},
  };
  print_report(wname, e2e);
  {
    // One row per request key: replies and median latency.
    std::map<std::size_t, std::vector<double>> per_key;
    for (const Reply& r : ph.replies) per_key[r.key].push_back(r.latency_us);
    for (auto& [k, lat] : per_key)
      std::printf("key \"%s\" n=%zu p50_us=%.6g\n", keys[k].line.c_str(),
                  lat.size(), percentile(lat, 50));
  }
  for (const Metric& m : e2e)
    if (m.name.find("p99") != std::string::npos && m.defined &&
        static_cast<double>(m.n) * 0.01 < 10)
      std::printf("note %s has fewer than 10 samples beyond it (n=%zu)\n",
                  m.name.c_str(), m.n);

  const bool correct = v.wrong == 0;
  if (!a.trace) {
    const std::set<std::string> gated = {
        "setup_s",           "requests_per_s",  "latency_p50_us",
        "latency_p99_us",    "cpu_ms_per_request", "speedup_geomean",
        "peak_rss_mb"};
    std::vector<Metric> out;
    for (const Metric& m : e2e)
      if (gated.count(m.name)) out.push_back(m);
    std::printf("%s\n", json_result(correct, attempted, failed, out).c_str());
    return 0;
  }

  // ---- per-layer metrics (traced run).
  const SpanStats st = span_stats(spans);
  const Probe probe = run_probe(ga_keys(a.seed)[0], a.work);
  const auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };

  std::vector<Metric> layer;
  const auto add = [&](const std::string& n, double val, const char* unit,
                       double samples) {
    layer.push_back({n, val, unit, static_cast<std::size_t>(samples)});
  };
  // A figure from the workload's traced slices, or from the probe when the
  // workload has no sample of it.
  const auto own_or_probe = [&](const std::string& n, const char* unit,
                                const auto& samples, const auto& value) {
    const bool from_probe = samples(st, reg) == 0;
    const SpanStats& s = from_probe ? probe.st : st;
    const RegistryTotals& r = from_probe ? probe.reg : reg;
    layer.push_back({n, value(s, r), unit,
                     static_cast<std::size_t>(samples(s, r)), true, from_probe});
  };
  const auto spans_of = [](const char* name) {
    return [name](const SpanStats& s, const RegistryTotals&) { return s.n(name); };
  };
  const auto hist_of = [](const char* name) {
    return [name](const SpanStats&, const RegistryTotals& r) { return r.count(name); };
  };

  // Requests per program in the traced phase, for apportioning.
  std::map<std::string, double> req_per_prog;
  for (const Reply& r : traced.replies) req_per_prog[keys[r.key].program] += 1;
  const double traced_requests = static_cast<double>(traced.replies.size());

  // The model: per-call costs measured around public functions, times the
  // traced phase's counts.
  const LayerModel lm = measure_layers(*suite, programs, a.seed, ga ? 120 : 12);
  const double sims = reg.counter("search.simulations");
  const double hits = reg.counter("search.eval_cache.hits");
  const double evals = sims + hits;
  double wl_us = 0, ir_named_us = 0, ir_cand_us = 0, opt_us = 0, memo_us = 0;
  double build_w = 0, copy_w = 0, cfp_w = 0, seq_w = 0, cand_w = 0, parse_w = 0;
  for (const auto& [name, pp] : lm.prog) {
    const double nreq = value_or_0(req_per_prog, name);
    const double share = traced_requests > 0 ? nreq / traced_requests : 0;
    const double e = evals * share;
    wl_us += nreq * pp.build_us;
    ir_named_us += nreq * pp.fp_named_us;
    ir_cand_us += e * (pp.copy_us + pp.fp_us);
    opt_us += e * pp.seq_us;
    memo_us += e * std::max(0.0, pp.cand_us - pp.copy_us - pp.seq_us - pp.fp_us);
    build_w += share * pp.build_us;
    copy_w += share * pp.copy_us;
    cfp_w += share * pp.fp_us;
    seq_w += share * pp.seq_us;
    cand_w += share * pp.cand_us;
    parse_w += pp.parse_us / static_cast<double>(lm.prog.size());
  }
  const double fp_calls = traced_requests + evals;
  const double kbstore_us =
      reg.sum("kbstore.wal.append_us") + reg.sum("kbstore.wal.flush_us");

  // net
  own_or_probe("net.request_us.p50", "us", spans_of("net.request"),
               [](const SpanStats& s, const RegistryTotals&) {
                 return s.pct_us("net.request", 50);
               });
  own_or_probe("net.request_us.p99", "us", spans_of("net.request"),
               [](const SpanStats& s, const RegistryTotals&) {
                 return s.pct_us("net.request", 99);
               });
  {
    // Client-observed minus server-side time per request.
    const std::vector<double> client = latencies(traced, "");
    double sum = 0;
    for (double x : client) sum += x;
    const double own_client = per(sum, static_cast<double>(client.size()));
    own_or_probe("net.client_gap_us", "us", spans_of("net.request"),
                 [&](const SpanStats& s, const RegistryTotals&) {
                   return (&s == &st ? own_client : probe.client_us) -
                          s.mean_us("net.request");
                 });
  }
  // svc
  add("svc.submit_self_us", st.self_mean_us("svc.submit"), "us",
      st.n("svc.submit"));
  add("svc.cache_lookup_us", st.mean_us("svc.cache_lookup"), "us",
      st.n("svc.cache_lookup"));
  own_or_probe("svc.sched_wait_us.p99", "us", spans_of("svc.sched.wait"),
               [](const SpanStats& s, const RegistryTotals&) {
                 return s.pct_us("svc.sched.wait", 99);
               });
  own_or_probe("svc.kb_persist_us", "us", spans_of("svc.kb_persist"),
               [](const SpanStats& s, const RegistryTotals&) {
                 return s.mean_us("svc.kb_persist");
               });
  own_or_probe("svc.eval_self_us", "us", spans_of("svc.eval"),
               [](const SpanStats& s, const RegistryTotals&) {
                 return s.n("svc.eval") > 0 ? s.eval_minus_sim_us / s.n("svc.eval")
                                            : 0.0;
               });
  {
    double warm_hits = 0, sims_replied = 0;
    for (const Reply& r : traced.replies) {
      if (field(r.line, "source") == "warm") warm_hits += 1;
      const std::string n = field(r.line, "sims");
      if (!n.empty()) sims_replied += std::stod(n);
    }
    add("svc.warm_hit_ratio", per(warm_hits, traced_requests), "ratio",
        traced_requests);
    add("svc.sims_overcount", sims > 0 ? sims_replied / sims - 1 : 0.0, "ratio",
        traced_requests);
  }
  // workloads, ir
  add("wl.build_us", build_w, "us", traced_requests);
  add("ir.copy_us", copy_w, "us", evals);
  add("ir.fingerprint_us", per(ir_named_us + evals * cfp_w, fp_calls), "us",
      fp_calls);
  add("ir.parse_us", parse_w, "us", lm.prog.size());
  add("ir.text_roundtrip_mismatches", static_cast<double>(roundtrip), "count",
      suite->by_name.size());
  // opt
  for (unsigned id = 0; id < opt::kNumPasses; ++id) {
    const char* pn = opt::pass_name(static_cast<opt::PassId>(id));
    add(std::string("opt.pass_us.") + pn, per(lm.pass_us_sum[id], lm.pass_runs[id]),
        "us", lm.pass_runs[id]);
    add(std::string("opt.pass_changed.") + pn,
        per(lm.pass_changed[id], lm.pass_runs[id]), "ratio", lm.pass_runs[id]);
  }
  add("opt.sequence_us", seq_w, "us", evals);
  // search
  add("search.evaluations", evals, "count", 1);
  add("search.simulations", sims, "count", 1);
  add("search.memo_hit_ratio", per(hits, evals), "ratio", evals);
  add("search.candidate_us", cand_w, "us", evals);
  own_or_probe("search.ga.generation_us", "us", spans_of("search.ga.generation"),
               [](const SpanStats& s, const RegistryTotals&) {
                 return s.mean_us("search.ga.generation");
               });
  // sim
  own_or_probe("sim.execute_us", "us", hist_of("sim.execute_us"),
               [](const SpanStats&, const RegistryTotals& r) {
                 return r.mean("sim.execute_us");
               });
  own_or_probe("sim.decode_us", "us", hist_of("sim.decode_us"),
               [](const SpanStats&, const RegistryTotals& r) {
                 return r.mean("sim.decode_us");
               });
  own_or_probe("sim.minstr_per_s", "Minstr/s", hist_of("sim.execute_us"),
               [&](const SpanStats&, const RegistryTotals& r) {
                 return per(r.counter("sim.instructions"), r.sum("sim.execute_us"));
               });
  own_or_probe("sim.program_cache.hit_ratio", "ratio", hist_of("sim.execute_us"),
               [&](const SpanStats&, const RegistryTotals& r) {
                 const double h = r.counter("sim.program_cache.hits");
                 return per(h, h + r.counter("sim.program_cache.misses"));
               });
  // kbstore; ga_adpcm's KB is in memory, so it recovers nothing.
  if (ga)
    layer.push_back({"kbstore.recover_s", probe.open_s, "s", 1, true, true});
  else
    add("kbstore.recover_s", median(recover_s), "s", recover_s.size());
  add("kbstore.records", recovered_records, "count", 1);
  own_or_probe("kbstore.wal.append_us", "us", hist_of("kbstore.wal.append_us"),
               [](const SpanStats&, const RegistryTotals& r) {
                 return r.mean("kbstore.wal.append_us");
               });
  own_or_probe("kbstore.wal.flush_us", "us", hist_of("kbstore.wal.flush_us"),
               [](const SpanStats&, const RegistryTotals& r) {
                 return r.mean("kbstore.wal.flush_us");
               });
  add("kbstore.appends", reg.counter("kbstore.appends"), "count", 1);
  // obs: traced versus untraced wall time per request.
  add("obs.trace_overhead",
      (traced.window_s / static_cast<double>(traced.replies.size())) /
              (ph.window_s / replies) -
          1.0,
      "ratio", traced.replies.size());
  add("search.parallel_speedup.w2", probe.wall_us.at(1) / probe.wall_us.at(2),
      "ratio", 1);
  add("search.parallel_speedup.w4", probe.wall_us.at(1) / probe.wall_us.at(4),
      "ratio", 1);

  // Shares of busy time: spans measure net, svc, sim; the registry measures
  // kbstore; the model apportions wl, ir, opt and search's memo path. What
  // no layer accounts for is share.unexplained.
  const auto total = [&](const char* n) { return value_or_0(st.total_us, n); };
  const auto self = [&](const char* n) { return value_or_0(st.self_us, n); };
  const double busy = warm ? total("net.request")
                           : total("svc.submit") + total("svc.request.run");
  const double net_us = self("net.request");
  const double sim_us = total("search.simulate");
  const double svc_us = self("svc.cache_lookup") + self("svc.request.run") +
                        std::max(0.0, self("svc.kb_persist") - kbstore_us);
  const double ir_us = ir_named_us + ir_cand_us;
  const std::pair<const char*, double> shares[] = {
      {"share.net", net_us},   {"share.svc", svc_us},
      {"share.wl", wl_us},     {"share.ir", ir_us},
      {"share.opt", opt_us},   {"share.search", memo_us},
      {"share.sim", sim_us},   {"share.kbstore", kbstore_us}};
  double explained = 0;
  for (const auto& [n, us] : shares) {
    add(n, per(us, busy), "ratio", 1);
    explained += us;
  }
  add("share.unexplained", per(busy - explained, busy), "ratio", 1);

  print_report(wname, layer);
  std::printf("%s\n", json_result(correct, attempted, failed, layer).c_str());
  return 0;
}
