// Request/response vocabulary of the tuning service (paper Fig. 1 run as a
// persistent system): a client asks "how should I optimize this program?"
// by naming a suite workload or shipping inline IR text, together with the
// machine to tune for, a search budget, and an objective. The response is
// the best configuration the service knows — found by a fresh search, by
// joining a search already in flight, or straight from the knowledge base.
#pragma once

#include <cstdint>
#include <string>

#include "search/strategies.hpp"
#include "sim/machine.hpp"

namespace ilc::svc {

/// Which search strategy a miss should run.
enum class Strategy { Random, Greedy, Genetic };

struct TuningRequest {
  /// Workload name (wl::make_workload) when ir_text is empty; otherwise a
  /// label for the inline module.
  std::string program;
  /// Optional inline IR in the textual form of ir/printer.hpp.
  std::string ir_text;

  sim::MachineConfig machine;
  unsigned budget = 20;  // evaluations a cache miss may spend
  search::Objective objective = search::Objective::Cycles;
  Strategy strategy = Strategy::Random;
  /// Warm-start the search from the service's seed bank (clustered KB
  /// seeding + learned estimator pre-filter). Ignored when the service
  /// has no seed bank configured, or for Strategy::Greedy.
  bool seeding = false;

  /// Higher priorities are scheduled first; equal priorities run FIFO.
  int priority = 0;
  /// Search RNG seed — responses are deterministic in (request, KB state).
  std::uint64_t seed = 2008;
  /// Deadline for the whole request, measured from submit(). 0 = none, as
  /// is a timeout past the range of the service's steady clock.
  /// A job whose deadline passes while it waits in the queue resolves as
  /// Source::TimedOut without running a search.
  std::uint64_t timeout_ms = 0;

  TuningRequest() : machine(sim::amd_like()) {}
};

/// How a response was produced.
enum class Source {
  Error,      // request malformed, search failed, or result not persisted
  WarmCache,  // answered from the knowledge base, zero simulations
  Search,     // a search ran for this request, or for the identical
              // in-flight request it joined (svc.coalesced counts those)
  TimedOut,   // deadline expired before a worker could run the search
  Rejected,   // load shed: admission queue full, nothing cached to serve
  StaleCache, // overload fallback: last known in-memory result, possibly
              // not durable (e.g. computed but its KB persist failed)
  Follower,   // answered from a replicated follower KB (read-only: the
              // owning shard runs the searches, this process mirrors them)
};

const char* source_name(Source s);

struct TuningResponse {
  bool ok = false;
  std::string error;  // set when !ok

  std::string program;
  std::string config;  // best pass sequence, textual form
  std::uint64_t baseline_metric = 0;  // objective metric at -O0
  std::uint64_t best_metric = 0;      // objective metric of `config`
  double speedup = 0.0;               // baseline / best

  Source source = Source::Error;
  std::size_t simulations = 0;  // real simulator runs this request caused
  std::uint64_t latency_us = 0;

  /// Pareto-objective extras (zero unless the request ran with
  /// objective=pareto): archive size and the hypervolume dominated with
  /// the -O0 measurement as reference point.
  std::size_t pareto_front = 0;
  double hypervolume = 0.0;
};

}  // namespace ilc::svc
