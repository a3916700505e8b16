// Overload behaviour of the tuning service: sustained over-capacity load
// (multiple client threads submitting far faster than the worker pool can
// drain, against a deliberately small admission queue) followed by a burst
// in which every KB persist is forced to fail via the "svc.persist"
// failpoint. Reports reject/shed/timeout rates and p95 latency per phase.
//
// The gate — enforced in --smoke and full runs alike — is the request
// lifecycle guarantee: every submitted future resolves (zero hung
// clients), every request is accounted to exactly one outcome, overload
// actually produced load-shedding, and the fault phase produced persist
// errors without stranding a single client.
//
//   ILC_SVC_OVERLOAD_CLIENTS  submitting threads        (default 4)
//   ILC_SVC_OVERLOAD_PASSES   passes over the matrix    (default 6; smoke 2)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "support/failpoint.hpp"
#include "support/table.hpp"
#include "svc/service.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

using Clock = std::chrono::steady_clock;

struct Phase {
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t hung = 0;  // futures not ready after the generous wait
  double wall_s = 0.0;
  obs::RegistrySnapshot m;  // the service's metrics() after drain

  std::uint64_t count(const char* counter) const {
    return m.counter_value(counter);
  }
  std::uint64_t outcomes() const {
    return count("svc.warm_hits") + count("svc.coalesced") +
           count("svc.searches") + count("svc.errors") +
           count("svc.rejected") + count("svc.timed_out") +
           count("svc.shed");
  }
  std::uint64_t p95_latency_us() const {
    const obs::HistogramSnapshot* h = m.histogram("svc.latency_us");
    return h ? static_cast<std::uint64_t>(h->percentile(95.0)) : 0;
  }
};

/// Hammer a fresh service instance from `clients` threads, `passes` times
/// over a (program x machine) request matrix, then wait on every future
/// with a generous deadline so a genuinely hung client is detected rather
/// than blocking the bench forever.
Phase run_phase(const std::string& name, std::size_t max_queue,
                unsigned clients, unsigned passes, std::size_t nprograms,
                bool with_deadlines) {
  Phase out;
  out.name = name;

  svc::TuningService::Options opts;
  opts.workers = 2;
  opts.kb_path = "";  // in-memory: overload dynamics, not disk speed
  opts.autosave = false;
  opts.max_queue = max_queue;
  opts.evaluator_cache = 16;
  svc::TuningService service(opts);

  const auto& names = wl::workload_names();
  const std::size_t n = std::min(nprograms, names.size());
  const sim::MachineConfig machines[2] = {sim::amd_like(), sim::c6713_like()};

  std::mutex fmu;
  std::vector<std::shared_future<svc::TuningResponse>> futures;
  const Clock::time_point t0 = Clock::now();

  std::vector<std::thread> pool;
  for (unsigned c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (unsigned pass = 0; pass < passes; ++pass) {
        for (std::size_t i = 0; i < n; ++i) {
          for (const sim::MachineConfig& machine : machines) {
            svc::TuningRequest req;
            req.program = names[i];
            req.machine = machine;
            req.budget = 4;
            req.objective = pass % 2 == 0 ? search::Objective::Cycles
                                          : search::Objective::CodeSize;
            req.priority = static_cast<int>(i % 3);
            if (with_deadlines && (i + pass + c) % 5 == 0) req.timeout_ms = 2;
            std::shared_future<svc::TuningResponse> f =
                service.submit(std::move(req));
            std::lock_guard<std::mutex> lock(fmu);
            futures.push_back(std::move(f));
          }
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  out.submitted = futures.size();
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(120)) != std::future_status::ready)
      ++out.hung;  // the bug class this bench exists to catch
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  service.drain();
  out.m = service.metrics();
  return out;
}

std::string pct(std::uint64_t part, std::uint64_t whole) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%",
                whole ? 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole)
                      : 0.0);
  return buf;
}

std::string phase_json(const Phase& p) {
  bench::Json j;
  j.integer("requests", p.count("svc.requests"))
      .integer("hung", p.hung)
      .integer("warm_hits", p.count("svc.warm_hits"))
      .integer("coalesced", p.count("svc.coalesced"))
      .integer("searches", p.count("svc.searches"))
      .integer("errors", p.count("svc.errors"))
      .integer("rejected", p.count("svc.rejected"))
      .integer("timed_out", p.count("svc.timed_out"))
      .integer("shed", p.count("svc.shed"))
      .integer("persist_errors", p.count("svc.persist_errors"))
      .integer("p95_latency_us", p.p95_latency_us())
      .number("wall_s", p.wall_s);
  return j.render(2);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const unsigned clients = bench::env_unsigned("ILC_SVC_OVERLOAD_CLIENTS", 4);
  const unsigned passes = bench::env_unsigned("ILC_SVC_OVERLOAD_PASSES",
                                              args.smoke ? 2 : 6);
  const std::size_t nprograms = args.smoke ? 8 : wl::workload_names().size();
  const std::size_t max_queue = 8;  // small on purpose: force admission
                                    // decisions under the client firehose

  std::printf(
      "Tuning-service overload: %u clients x %u passes x %zu programs x 2 "
      "machines, queue depth %zu, 2 workers\n\n",
      clients, passes, nprograms, max_queue);

  // Phase 1: sustained over-capacity load with a mix of deadlines.
  const Phase overload = run_phase("overload", max_queue, clients, passes,
                                   nprograms, /*with_deadlines=*/true);

  // Phase 2: same shape of burst while every KB persist fails. Clients
  // must still all resolve (ok=false / stale), never hang.
  support::Failpoints::instance().configure("svc.persist=error");
  const Phase faults = run_phase("persist-fault", max_queue, clients,
                                 /*passes=*/1, nprograms,
                                 /*with_deadlines=*/false);
  support::Failpoints::instance().unset_all();

  support::Table table({"phase", "requests", "hung", "rejected", "timed out",
                        "shed", "persist err", "p95 us", "req/s"});
  for (const Phase* p : {&overload, &faults}) {
    char rps[32];
    std::snprintf(rps, sizeof rps, "%.0f",
                  static_cast<double>(p->submitted) / p->wall_s);
    const std::uint64_t requests = p->count("svc.requests");
    table.add_row({p->name, std::to_string(requests),
                   std::to_string(p->hung),
                   pct(p->count("svc.rejected"), requests),
                   pct(p->count("svc.timed_out"), requests),
                   pct(p->count("svc.shed"), requests),
                   std::to_string(p->count("svc.persist_errors")),
                   std::to_string(p->p95_latency_us()), rps});
  }
  table.print(std::cout);

  // The lifecycle gate. Every clause here is a bug if violated.
  bool ok = true;
  auto require = [&ok](bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "FAIL: %s\n", what);
    ok = ok && cond;
  };
  require(overload.hung == 0 && faults.hung == 0,
          "every submitted future resolved (zero hung clients)");
  require(overload.count("svc.requests") == overload.submitted &&
              faults.count("svc.requests") == faults.submitted,
          "service counted every submission");
  require(overload.outcomes() == overload.count("svc.requests") &&
              faults.outcomes() == faults.count("svc.requests"),
          "every request accounted to exactly one outcome");
  require(overload.count("svc.rejected") + overload.count("svc.shed") +
                  overload.count("svc.timed_out") > 0,
          "overload phase actually shed load");
  require(faults.count("svc.persist_errors") > 0,
          "fault phase injected persist failures");
  require(overload.m.gauge_value("svc.queued") == 0 &&
              overload.m.gauge_value("svc.in_flight") == 0 &&
              faults.m.gauge_value("svc.queued") == 0 &&
              faults.m.gauge_value("svc.in_flight") == 0,
          "gauges returned to zero after drain");

  if (!args.json_path.empty()) {
    bench::Json doc;
    doc.integer("clients", clients)
        .integer("passes", passes)
        .integer("programs", nprograms)
        .integer("max_queue", max_queue)
        .boolean("smoke", args.smoke)
        .boolean("ok", ok)
        .raw("overload", phase_json(overload))
        .raw("persist_fault", phase_json(faults));
    if (!bench::write_json(args.json_path, std::move(doc))) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
  }

  std::printf("\nzero hung futures, all outcomes accounted: %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
