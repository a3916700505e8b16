// Throughput of the tuning service: requests/sec over the whole workload
// suite at 1, 2, and 4 workers, cold (empty knowledge base — every request
// runs a search) vs. warm (a second service instance against the KB file
// the cold pass wrote — every request answered without simulation). The
// warm/cold ratio is the payoff of the persistent serving layer; the run
// fails if warm throughput is not at least 10x cold at every width.
//
//   ILC_SVC_BUDGET   search budget per cold request   (default 10)
//   ILC_SVC_REPEAT   submissions per program          (default 2)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "support/table.hpp"
#include "svc/service.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

using Clock = std::chrono::steady_clock;

struct PassResult {
  double rps = 0.0;
  std::uint64_t simulations = 0;
};

/// Submit `repeat` tuning requests per suite program and drain.
PassResult run_pass(svc::TuningService& service, unsigned budget,
                    unsigned repeat) {
  const auto& names = wl::workload_names();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::shared_future<svc::TuningResponse>> futures;
  for (unsigned r = 0; r < repeat; ++r) {
    for (const auto& name : names) {
      svc::TuningRequest req;
      req.program = name;
      req.budget = budget;
      futures.push_back(service.submit(req));
    }
  }
  for (auto& f : futures) {
    const svc::TuningResponse resp = f.get();
    if (!resp.ok) {
      std::fprintf(stderr, "request failed: %s\n", resp.error.c_str());
      std::exit(1);
    }
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - t0).count();
  PassResult out;
  out.rps = static_cast<double>(futures.size()) / secs;
  out.simulations = service.metrics().counter_value("svc.simulations");
  return out;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

int main() {
  const unsigned budget = bench::env_unsigned("ILC_SVC_BUDGET", 10);
  const unsigned repeat = bench::env_unsigned("ILC_SVC_REPEAT", 2);
  const char* kb_path = "svc_throughput.kb";

  std::printf("Tuning-service throughput over %zu programs x%u, budget %u\n\n",
              wl::workload_names().size(), repeat, budget);

  support::Table table({"workers", "cold req/s", "cold sims", "warm req/s",
                        "warm sims", "warm/cold"});
  bool ok = true;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    std::filesystem::remove_all(kb_path);  // the KB is a store directory now

    svc::TuningService::Options opts;
    opts.workers = workers;
    opts.kb_path = kb_path;
    PassResult cold, warm;
    {
      svc::TuningService service(opts);
      cold = run_pass(service, budget, repeat);
    }
    {
      svc::TuningService service(opts);  // fresh instance, same KB file
      warm = run_pass(service, budget, repeat);
    }

    const double ratio = warm.rps / cold.rps;
    ok = ok && ratio >= 10.0 && warm.simulations == 0;
    table.add_row({std::to_string(workers), fmt(cold.rps),
                   std::to_string(cold.simulations), fmt(warm.rps),
                   std::to_string(warm.simulations), fmt(ratio)});
  }
  table.print(std::cout);

  std::filesystem::remove_all(kb_path);
  std::printf("\nwarm >= 10x cold at every width, 0 warm simulations: %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
