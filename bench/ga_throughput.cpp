// Genetic-search wall-clock at 1, 2, and 4 evaluation workers on the
// Fig. 2 target (adpcm). Every width re-runs the identical fixed-seed GA
// from a cold evaluator; the bench fails unless each parallel trace is
// bit-identical to the sequential one (same best_so_far curve, best
// sequence, and best metric) and simulated the same number of distinct
// programs — speed is only admissible if determinism held.
// Speedups are bounded by the host's core count, which is recorded
// alongside the numbers.
//
// Per width it also records where the evaluations went: `pipelines` is
// how many ran the module copy, the pass pipeline and the fingerprint
// (sequence-index misses), `pass_runs` how many passes those pipelines
// executed (the run's prefix states skip the rest), `sims` how many of
// them simulated (fingerprint misses). At one worker all three counts are
// deterministic for a seed and budget, so the baseline gate compares
// counts, not host speed. At more workers `pass_runs` depends on which
// worker stores a prefix state first.
//
// `images` counts the initial memory images built (`sim.image_builds`):
// the evaluator builds one per pointer width and restarts a per-thread
// simulator on it, so a run builds at most two, and the gate holds the
// 1-worker count to the record's too. `setup us/sim` is what a simulation
// costs besides executing and decoding: the `search.simulate_us` sum minus
// the `sim.execute_us` and `sim.decode_us` sums, per simulation. It is
// host time, so it is reported and never gated.
//
//   ILC_GA_BUDGET      evaluations per run   (default 400)
//   ILC_GA_SEED        GA seed               (default 2008)
//   --smoke            budget 60 (CI correctness pass)
//   --json <path>      machine-readable summary
//   --baseline <json>  compare against a prior record (a --json summary, or
//                      a file holding one under a "ga_throughput" key);
//                      a non-smoke run at the record's seed and budget
//                      exits nonzero when its 1-worker pipeline, pass-run,
//                      simulation or image count exceeds the record's
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "search/strategies.hpp"
#include "support/table.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

using Clock = std::chrono::steady_clock;

struct Run {
  search::SearchTrace trace;
  double secs = 0.0;
  std::size_t pipelines = 0;
  std::size_t pass_runs = 0;
  std::size_t simulations = 0;
  std::uint64_t image_builds = 0;
  double setup_us_per_sim = 0.0;
};

Run run_ga(const ir::Module& mod, unsigned budget, std::uint64_t seed,
           unsigned workers) {
  // Cold start per width: a fresh evaluator (empty memo cache), so no
  // width inherits the previous one's work.
  search::Evaluator eval(mod, sim::amd_like());
  support::Rng rng(seed);
  search::SequenceSpace space;
  search::GaParams params;
  params.workers = workers;

  Run out;
  const obs::RegistrySnapshot before = obs::Registry::instance().snapshot();
  const Clock::time_point t0 = Clock::now();
  out.trace = search::genetic_search(eval, space, rng, budget,
                                     search::Objective::Cycles, params);
  out.secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const obs::RegistrySnapshot after = obs::Registry::instance().snapshot();
  out.simulations = eval.simulations();
  out.pipelines =
      eval.simulations() + eval.cache_hits() - eval.sequence_hits();
  out.pass_runs = eval.pass_runs();
  out.image_builds = after.counter_value("sim.image_builds") -
                     before.counter_value("sim.image_builds");
  const auto delta = [&](const char* name) {  // a histogram's sum, in us
    const obs::HistogramSnapshot* a = after.histogram(name);
    const obs::HistogramSnapshot* b = before.histogram(name);
    return static_cast<double>((a ? a->sum : 0) - (b ? b->sum : 0));
  };
  if (out.simulations > 0)
    out.setup_us_per_sim = (delta("search.simulate_us") -
                            delta("sim.execute_us") - delta("sim.decode_us")) /
                           static_cast<double>(out.simulations);
  return out;
}

bool identical(const search::SearchTrace& a, const search::SearchTrace& b) {
  return a.evaluations == b.evaluations && a.best_metric == b.best_metric &&
         a.best_seq == b.best_seq && a.best_so_far == b.best_so_far;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// The 1-worker counts of a prior record. Parsed by scanning for the exact
/// key/value shapes our own emitter writes — not a general JSON reader.
struct Baseline {
  bool loaded = false;
  std::uint64_t budget = 0;
  std::uint64_t seed = 0;
  std::uint64_t pipelines = 0;
  std::uint64_t pass_runs = 0;
  std::uint64_t simulations = 0;
  std::uint64_t image_builds = 0;
};

Baseline load_baseline(const std::string& path) {
  Baseline b;
  std::ifstream in(path);
  if (!in) return b;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  // Value of the first `key` at or after `from`; npos when absent.
  const auto field = [&](const char* key, std::size_t from,
                         std::uint64_t* out) {
    const std::size_t k = text.find(key, from);
    if (k == std::string::npos) return k;
    const std::size_t colon = text.find(':', k);
    if (colon == std::string::npos) return colon;
    *out = std::strtoull(text.c_str() + colon + 1, nullptr, 10);
    return k;
  };

  // Our emitter writes the 1-worker row first.
  constexpr std::size_t npos = std::string::npos;
  std::uint64_t workers = 0;
  const std::size_t section = text.find("\"ga_throughput\"");
  const std::size_t row =
      section == npos ? npos : field("\"workers\"", section, &workers);
  b.loaded = row != npos && workers == 1 &&
             field("\"budget\"", section, &b.budget) != npos &&
             field("\"seed\"", section, &b.seed) != npos &&
             field("\"pipelines\"", row, &b.pipelines) != npos &&
             field("\"pass_runs\"", row, &b.pass_runs) != npos &&
             field("\"simulations\"", row, &b.simulations) != npos &&
             field("\"image_builds\"", row, &b.image_builds) != npos;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const unsigned budget =
      args.smoke ? 60 : bench::env_unsigned("ILC_GA_BUDGET", 400);
  const std::uint64_t seed = bench::env_unsigned("ILC_GA_SEED", 2008);
  const unsigned host_threads = std::thread::hardware_concurrency();

  const wl::Workload w = wl::make_workload("adpcm");
  std::printf("GA throughput on %s, budget %u, seed %llu, host threads %u\n\n",
              w.name.c_str(), budget, static_cast<unsigned long long>(seed),
              host_threads);

  support::Table table({"workers", "secs", "evals/s", "speedup", "pipelines",
                        "pass runs", "sims", "images", "setup us/sim",
                        "trace == seq"});
  std::vector<std::string> json_rows;
  bool ok = true;
  Run reference;

  for (const unsigned workers : {1u, 2u, 4u}) {
    const Run run = run_ga(w.module, budget, seed, workers);
    if (workers == 1) reference = run;
    const bool same = identical(run.trace, reference.trace) &&
                      run.simulations == reference.simulations;
    ok = ok && same;

    const double speedup = reference.secs / run.secs;
    const double eps = run.trace.evaluations / run.secs;
    table.add_row({std::to_string(workers), fmt(run.secs), fmt(eps),
                   fmt(speedup), std::to_string(run.pipelines),
                   std::to_string(run.pass_runs),
                   std::to_string(run.simulations),
                   std::to_string(run.image_builds),
                   fmt(run.setup_us_per_sim), same ? "yes" : "NO"});
    json_rows.push_back(bench::Json()
                            .integer("workers", workers)
                            .number("secs", run.secs)
                            .number("evals_per_s", eps)
                            .number("speedup_vs_1", speedup)
                            .integer("evaluations", run.trace.evaluations)
                            .integer("pipelines", run.pipelines)
                            .integer("pass_runs", run.pass_runs)
                            .integer("simulations", run.simulations)
                            .integer("image_builds", run.image_builds)
                            .number("setup_us_per_sim", run.setup_us_per_sim)
                            .boolean("trace_identical", same)
                            .render());
  }
  table.print(std::cout);
  std::printf("\nall parallel traces bit-identical to sequential: %s\n",
              ok ? "PASS" : "FAIL");

  // --baseline gate: the 1-worker counts may not grow. Smoke runs (and
  // runs at another seed or budget) report but never fail on it.
  bool counts_ok = true;
  if (!args.baseline_path.empty()) {
    const Baseline base = load_baseline(args.baseline_path);
    if (!base.loaded) {
      std::fprintf(stderr, "cannot parse baseline %s\n",
                   args.baseline_path.c_str());
      return 1;
    }
    std::printf("\nbaseline %s (budget %llu, seed %llu), 1 worker:\n"
                "  pipelines %llu -> %zu, pass runs %llu -> %zu, "
                "simulations %llu -> %zu, images %llu -> %llu\n",
                args.baseline_path.c_str(),
                static_cast<unsigned long long>(base.budget),
                static_cast<unsigned long long>(base.seed),
                static_cast<unsigned long long>(base.pipelines),
                reference.pipelines,
                static_cast<unsigned long long>(base.pass_runs),
                reference.pass_runs,
                static_cast<unsigned long long>(base.simulations),
                reference.simulations,
                static_cast<unsigned long long>(base.image_builds),
                static_cast<unsigned long long>(reference.image_builds));
    if (base.budget != budget || base.seed != seed) {
      std::printf("  not comparable: this run is budget %u, seed %llu\n",
                  budget, static_cast<unsigned long long>(seed));
    } else {
      counts_ok = reference.pipelines <= base.pipelines &&
                  reference.pass_runs <= base.pass_runs &&
                  reference.simulations <= base.simulations &&
                  reference.image_builds <= base.image_builds;
      std::printf("  baseline gate: %s\n", counts_ok ? "PASS" : "FAIL");
    }
    if (args.smoke) counts_ok = true;  // smoke reports, never gates
  }

  if (!args.json_path.empty()) {
    const bench::Json doc = bench::Json()
                                .string("bench", "ga_throughput")
                                .string("workload", w.name)
                                .integer("budget", budget)
                                .integer("seed", seed)
                                .integer("host_threads", host_threads)
                                .boolean("deterministic", ok)
                                .raw("widths", bench::Json::array(json_rows));
    if (!bench::write_json(args.json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
  }
  return ok && counts_ok ? 0 : 1;
}
