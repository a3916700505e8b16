// Observability overhead: what does the obs instrumentation cost the
// tuning stack's hot paths, with the kill switches off and on?
//
// The workload is sim_speed-shaped — engine simulation of the whole
// workload suite — plus one small random search, so counters, phase
// timers, and spans all fire. Three modes run interleaved (rep by rep, so
// frequency scaling and cache state hit all modes equally):
//
//   disabled  profiling off, tracing off — counters only (always on)
//   metrics   profiling on (clock reads + histogram records), tracing off
//   traced    profiling on and tracing on (spans into ring buffers)
//
// The <1% disabled-mode gate is *projected*, not differenced: a measured
// A/B of two seconds-scale runs cannot resolve sub-1% reliably on shared
// CI, so we count the instrumentation events a disabled run actually
// executes (from registry deltas, whose per-call-site multiplicities are
// fixed by the code), microbench each primitive's disabled cost in a
// tight loop, and budget events x cost against the run's wall time. The
// measured A/B runtimes for all three modes are reported alongside,
// honestly, noise and all.
//
//   ILC_OBSOVERHEAD_REPS  reps per mode (default 5)
//   --smoke               1 rep (CI gate)
//   --json <path>         machine-readable summary
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "search/evaluator.hpp"
#include "search/strategies.hpp"
#include "sim/interpreter.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One unit of workload: simulate every suite program and run a small
/// random search (the search part fires spans + eval timers; random_search
/// keeps the event accounting exact, unlike the GA whose generation count
/// depends on convergence).
void run_workload(const std::vector<wl::Workload>& suite, unsigned seed) {
  const sim::MachineConfig cfg = sim::amd_like();
  for (const auto& w : suite) {
    sim::Simulator sim(w.module, cfg);
    (void)sim.run();
  }
  search::Evaluator eval(suite.front().module, sim::amd_like());
  search::SequenceSpace space;
  support::Rng rng(seed);
  search::random_search(eval, space, rng, /*budget=*/8,
                        search::Objective::Cycles);
}

std::uint64_t counter_delta(const obs::RegistrySnapshot& before,
                            const obs::RegistrySnapshot& after,
                            const std::string& name) {
  const obs::CounterValue* b = before.counter(name);
  const obs::CounterValue* a = after.counter(name);
  return (a ? a->value : 0) - (b ? b->value : 0);
}

/// Per-call disabled cost of one instrumentation primitive, in ns,
/// measured over `iters` back-to-back calls.
template <typename F>
double ns_per_call(std::uint64_t iters, F&& f) {
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) f();
  return secs_since(t0) * 1e9 / static_cast<double>(iters);
}

struct Mode {
  const char* name;
  bool profiling;
  bool tracing;
  double secs = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const unsigned reps =
      args.smoke ? 1 : bench::env_unsigned("ILC_OBSOVERHEAD_REPS", 5);

  const std::vector<wl::Workload> suite = wl::make_suite();
  Mode modes[] = {
      {"disabled", false, false},
      {"metrics", true, false},
      {"traced", true, true},
  };

  // Warm-up (untimed): fault in every code path so the first timed rep is
  // not paying one-time costs.
  run_workload(suite, 1);

  // Event census: registry deltas over one disabled-mode workload unit.
  // Multiplicities per call site (fixed by the instrumentation code):
  //   Simulator::call       1 timer + 5 counter adds
  //   initial image build   1 counter add (image builds)
  //   decode_program        1 timer
  //   Evaluator::simulate   1 span + 1 timer + 1 counter add
  //   fingerprint memo hit  1 counter add
  //   sequence index hit    2 counter adds (eval cache + seq memo)
  //   pipeline run          2 counter adds (pass runs executed + skipped)
  //   search candidate      1 trace-scope adoption (the batch's span)
  obs::set_profiling_enabled(false);
  obs::Tracer::set_enabled(false);
  const obs::RegistrySnapshot before = obs::Registry::instance().snapshot();
  const Clock::time_point census_t0 = Clock::now();
  run_workload(suite, 2);
  const double unit_secs = secs_since(census_t0);
  const obs::RegistrySnapshot after = obs::Registry::instance().snapshot();

  const std::uint64_t inv = counter_delta(before, after, "sim.invocations");
  // Every simulator here, a suite program's or an evaluator's restarted
  // one, makes one engine call on a module it has not decoded: one decode
  // per invocation. (sim.decode_us cannot count them with profiling off.)
  const std::uint64_t decodes = inv;
  const std::uint64_t sims =
      counter_delta(before, after, "search.simulations");
  const std::uint64_t eval_hits =
      counter_delta(before, after, "search.eval_cache.hits");
  const std::uint64_t seq_hits =
      counter_delta(before, after, "search.seq_memo.hits");
  const std::uint64_t image_builds =
      counter_delta(before, after, "sim.image_builds");
  // Every evaluation that missed the sequence index ran a pipeline.
  const std::uint64_t pipelines = sims + eval_hits - seq_hits;

  const std::uint64_t counter_adds = 5 * inv + image_builds + 2 * sims +
                                     eval_hits + seq_hits + 2 * pipelines;
  const std::uint64_t timer_events = inv + decodes + sims;
  const std::uint64_t span_events = sims;
  // Every evaluation here is a random-search candidate.
  const std::uint64_t scope_events = sims + eval_hits;

  // Disabled per-event costs, microbenched on this machine right now.
  obs::Registry micro;
  obs::Counter mc = micro.counter("micro.counter");
  obs::Histogram mh = micro.histogram("micro.hist");
  const std::uint64_t iters = args.smoke ? 1u << 20 : 1u << 22;
  const double counter_ns = ns_per_call(iters, [&] { mc.add(1); });
  const double timer_ns =
      ns_per_call(iters, [&] { obs::ScopedTimerUs t(mh); });
  const double span_ns = ns_per_call(iters, [&] { obs::Span s("micro"); });
  const double scope_ns = ns_per_call(
      iters, [&] { obs::TraceScope s(obs::Tracer::current()); });

  const double projected_ns = static_cast<double>(counter_adds) * counter_ns +
                              static_cast<double>(timer_events) * timer_ns +
                              static_cast<double>(span_events) * span_ns +
                              static_cast<double>(scope_events) * scope_ns;
  const double projected_pct = projected_ns / (unit_secs * 1e9) * 100.0;
  const bool gate_ok = projected_pct < 1.0;

  // Measured A/B: interleave reps of the three modes.
  for (unsigned r = 0; r < reps; ++r) {
    for (Mode& m : modes) {
      obs::set_profiling_enabled(m.profiling);
      obs::Tracer::set_enabled(m.tracing);
      const Clock::time_point t0 = Clock::now();
      run_workload(suite, 100 + r);
      m.secs += secs_since(t0);
    }
  }
  obs::set_profiling_enabled(true);
  obs::Tracer::set_enabled(false);
  obs::Tracer::clear();

  const double metrics_pct =
      (modes[1].secs / modes[0].secs - 1.0) * 100.0;
  const double traced_pct = (modes[2].secs / modes[0].secs - 1.0) * 100.0;

  std::printf("obs overhead, %u reps/mode over %zu workloads + 1 search\n\n",
              reps, suite.size());
  std::printf("event census per workload unit (%.3fs disabled):\n",
              unit_secs);
  std::printf("  %llu counter adds, %llu timers, %llu spans, %llu trace "
              "scopes\n",
              static_cast<unsigned long long>(counter_adds),
              static_cast<unsigned long long>(timer_events),
              static_cast<unsigned long long>(span_events),
              static_cast<unsigned long long>(scope_events));
  std::printf("disabled per-event cost: counter %.2fns, timer %.2fns, "
              "span %.2fns, trace scope %.2fns\n",
              counter_ns, timer_ns, span_ns, scope_ns);
  std::printf("projected disabled-mode overhead: %.4f%% (gate: <1%%): %s\n",
              projected_pct, gate_ok ? "PASS" : "FAIL");
  std::printf("measured runtimes: disabled %.3fs, metrics %.3fs (%+.2f%%), "
              "traced %.3fs (%+.2f%%)\n",
              modes[0].secs, modes[1].secs, metrics_pct, modes[2].secs,
              traced_pct);

  if (!args.json_path.empty()) {
    const bench::Json doc =
        bench::Json()
            .string("bench", "obs_overhead")
            .integer("reps", reps)
            .integer("counter_adds", counter_adds)
            .integer("timer_events", timer_events)
            .integer("span_events", span_events)
            .integer("scope_events", scope_events)
            .number("counter_add_ns", counter_ns)
            .number("disabled_timer_ns", timer_ns)
            .number("disabled_span_ns", span_ns)
            .number("disabled_scope_ns", scope_ns)
            .number("workload_secs_disabled", unit_secs)
            .number("projected_disabled_overhead_pct", projected_pct)
            .number("measured_disabled_secs", modes[0].secs)
            .number("measured_metrics_secs", modes[1].secs)
            .number("measured_traced_secs", modes[2].secs)
            .number("measured_metrics_overhead_pct", metrics_pct)
            .number("measured_traced_overhead_pct", traced_pct)
            .boolean("gate_under_1pct", gate_ok);
    if (!bench::write_json(args.json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
  }
  return gate_ok ? 0 : 1;
}
