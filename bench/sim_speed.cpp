// Simulator throughput: Minstr/s of the tree-walking reference vs the
// engine (pre-decoded superblocks, threaded dispatch) over the whole
// workload suite. Both paths are run on identical modules and the bench
// asserts they agree on return value, cycle count, instruction count, and
// every counter for every workload — the speedup is only meaningful if
// the engine is bit-identical.
//
// Each path is timed as the best (minimum) of several interleaved trials:
// a single sample folds scheduler noise straight into the ratio, while
// the per-path minimum converges on the true cost.
//
//   ILC_SIMSPEED_REPS    simulator invocations per timed trial (default 5)
//   ILC_SIMSPEED_TRIALS  timed trials per path, best-of     (default 3)
//   --smoke              1 rep, 1 trial (CI correctness pass)
//   --json <path>        machine-readable summary
//   --baseline <json>    compare against a prior --json record; non-smoke
//                        runs exit nonzero when the geomean regresses
//                        beyond the noise margin or any workload drops
//                        below 1.0x
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/interpreter.hpp"
#include "support/table.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

using Clock = std::chrono::steady_clock;

struct PathResult {
  sim::RunResult rr;
  double secs = 0.0;
};

/// Time `reps` full runs of `main` on one path, each on a fresh Simulator,
/// so every engine rep pays its own decode; results must be invariant
/// across reps (the simulator is deterministic), so the last one is kept.
PathResult run_path(const ir::Module& mod, bool reference, unsigned reps) {
  const sim::MachineConfig cfg = sim::amd_like();
  PathResult out;
  const Clock::time_point t0 = Clock::now();
  for (unsigned r = 0; r < reps; ++r) {
    sim::Simulator sim(mod, cfg);
    out.rr = reference ? sim.run_reference() : sim.run();
  }
  out.secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

bool identical(const sim::RunResult& a, const sim::RunResult& b) {
  return a.ret == b.ret && a.cycles == b.cycles &&
         a.instructions == b.instructions && a.counters.v == b.counters.v;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// Prior sim_speed --json record: geomean plus per-workload speedups.
/// Parsed by scanning for the exact key/value shapes our own emitter
/// writes — not a general JSON reader.
struct Baseline {
  bool loaded = false;
  double geomean = 0.0;
  std::map<std::string, double> speedup;
};

Baseline load_baseline(const std::string& path) {
  Baseline b;
  std::ifstream in(path);
  if (!in) return b;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  const auto number_after = [&](std::size_t pos, double* out) {
    const std::size_t colon = text.find(':', pos);
    if (colon == std::string::npos) return false;
    *out = std::strtod(text.c_str() + colon + 1, nullptr);
    return true;
  };

  const std::size_t g = text.find("\"geomean_speedup\"");
  if (g == std::string::npos || !number_after(g, &b.geomean)) return b;

  std::size_t pos = 0;
  while ((pos = text.find("\"workload\"", pos)) != std::string::npos) {
    const std::size_t q0 = text.find('"', text.find(':', pos) + 1);
    const std::size_t q1 = text.find('"', q0 + 1);
    const std::size_t sp = text.find("\"speedup\"", pos);
    if (q0 == std::string::npos || q1 == std::string::npos ||
        sp == std::string::npos)
      break;
    double v = 0.0;
    if (!number_after(sp, &v)) break;
    b.speedup[text.substr(q0 + 1, q1 - q0 - 1)] = v;
    pos = sp + 1;
  }
  b.loaded = true;
  return b;
}

/// Machine-noise allowance for the geomean regression gate: back-to-back
/// runs on an otherwise idle box differ by a few percent even with
/// best-of-trials timing.
constexpr double kGeomeanNoiseMargin = 0.90;

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const unsigned reps =
      args.smoke ? 1 : bench::env_unsigned("ILC_SIMSPEED_REPS", 5);
  const unsigned trials =
      args.smoke ? 1 : bench::env_unsigned("ILC_SIMSPEED_TRIALS", 3);

  std::printf("Simulator throughput, reference vs engine, %u reps/trial, "
              "best of %u\n\n",
              reps, trials);

  support::Table table(
      {"workload", "instrs", "reference Mi/s", "engine Mi/s", "speedup"});
  std::vector<std::string> json_rows;
  std::map<std::string, double> speedups;
  double log_speedup_sum = 0.0;
  std::size_t n = 0;
  bool ok = true;

  for (const auto& name : wl::workload_names()) {
    const wl::Workload w = wl::make_workload(name);

    PathResult reference, engine;
    for (unsigned t = 0; t < trials; ++t) {
      // Interleave the paths so slow drift (thermal, noisy neighbors)
      // hits both sides of the ratio equally.
      const PathResult r = run_path(w.module, true, reps);
      const PathResult e = run_path(w.module, false, reps);
      if (t == 0 || r.secs < reference.secs) reference = r;
      if (t == 0 || e.secs < engine.secs) engine = e;
    }

    if (!identical(reference.rr, engine.rr)) {
      std::fprintf(stderr,
                   "MISMATCH on %s (ret/cycles/instructions/counters): "
                   "reference(ret=%lld cyc=%llu i=%llu) "
                   "engine(ret=%lld cyc=%llu i=%llu)\n",
                   name.c_str(), static_cast<long long>(reference.rr.ret),
                   static_cast<unsigned long long>(reference.rr.cycles),
                   static_cast<unsigned long long>(reference.rr.instructions),
                   static_cast<long long>(engine.rr.ret),
                   static_cast<unsigned long long>(engine.rr.cycles),
                   static_cast<unsigned long long>(engine.rr.instructions));
      ok = false;
      continue;
    }

    const std::uint64_t instrs = reference.rr.instructions;
    const double total_mi = static_cast<double>(instrs) * reps / 1e6;
    const double reference_mips = total_mi / reference.secs;
    const double engine_mips = total_mi / engine.secs;
    const double speedup = reference.secs / engine.secs;
    log_speedup_sum += std::log(speedup);
    speedups[name] = speedup;
    ++n;

    table.add_row({name, std::to_string(instrs), fmt(reference_mips),
                   fmt(engine_mips), fmt(speedup)});
    json_rows.push_back(bench::Json()
                            .string("workload", name)
                            .integer("instructions", instrs)
                            .number("reference_minstr_per_s", reference_mips)
                            .number("engine_minstr_per_s", engine_mips)
                            .number("speedup", speedup)
                            .render());
  }
  table.print(std::cout);

  const double geomean = n ? std::exp(log_speedup_sum / n) : 0.0;
  std::printf("\ngeomean engine/reference speedup: %.2fx\n", geomean);
  std::printf("reference == engine on ret/cycles/instructions/counters: %s\n",
              ok ? "PASS" : "FAIL");

  // --baseline gate: compare against a prior record. Smoke runs report
  // but never fail on performance (1 rep is not a measurement).
  bool perf_ok = true;
  if (!args.baseline_path.empty()) {
    const Baseline base = load_baseline(args.baseline_path);
    if (!base.loaded) {
      std::fprintf(stderr, "cannot parse baseline %s\n",
                   args.baseline_path.c_str());
      return 1;
    }
    std::printf("\nbaseline %s: geomean %.2fx -> %.2fx\n",
                args.baseline_path.c_str(), base.geomean, geomean);
    if (geomean < base.geomean * kGeomeanNoiseMargin) {
      std::printf("  FAIL: geomean regressed beyond the %.0f%% noise margin\n",
                  (1.0 - kGeomeanNoiseMargin) * 100.0);
      perf_ok = false;
    }
    for (const auto& [name, s] : speedups) {
      if (s < 1.0) {
        std::printf("  FAIL: %s at %.2fx — engine slower than reference\n",
                    name.c_str(), s);
        perf_ok = false;
      }
      const auto it = base.speedup.find(name);
      if (it != base.speedup.end() && s < it->second * kGeomeanNoiseMargin) {
        std::printf("  note: %s %.2fx -> %.2fx vs baseline\n", name.c_str(),
                    it->second, s);
      }
    }
    if (perf_ok) std::printf("  baseline gate: PASS\n");
    if (args.smoke) perf_ok = true;  // smoke reports, never gates
  }

  if (!args.json_path.empty()) {
    const bench::Json doc =
        bench::Json()
            .string("bench", "sim_speed")
            .integer("reps", reps)
            .integer("trials", trials)
            .number("geomean_speedup", geomean)
            .boolean("bit_identical", ok)
            .raw("workloads", bench::Json::array(json_rows));
    if (!bench::write_json(args.json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
  }
  return ok && perf_ok ? 0 : 1;
}
