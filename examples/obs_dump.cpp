// obs_dump — exercise the tuning stack and dump the observability state
// it produced: the process-wide metrics registry (Prometheus text format
// by default, JSON lines with --jsonl) and, with --trace, a Chrome
// trace_event file of every recorded span (open it in chrome://tracing or
// https://ui.perfetto.dev).
//
//   $ ./obs_dump                         # run searches, print Prometheus text
//   $ ./obs_dump --jsonl                 # same, one JSON object per line
//   $ ./obs_dump --trace trace.json      # also record + write span trace
//   $ ./obs_dump --budget 32             # bigger search workload
//
// The workload is a miniature training period: a random search and a
// genetic search over two suite programs, plus a kbstore round-trip, so
// the dump shows live sim.*, search.*, and kbstore.* series.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "kb/knowledge_base.hpp"
#include "kbstore/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/evaluator.hpp"
#include "search/strategies.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workloads.hpp"

using namespace ilc;

namespace {

void run_searches(const char* program, unsigned budget) {
  wl::Workload w = wl::make_workload(program);
  search::Evaluator eval(w.module, sim::amd_like());
  search::SequenceSpace space;
  support::Rng rng(2008);
  support::ThreadPool helper(1);  // with the calling thread, two workers
  search::random_search(eval, space, rng, budget, search::Objective::Cycles,
                        &helper);
  search::GaParams ga;
  ga.workers = 2;
  search::genetic_search(eval, space, rng, budget, search::Objective::Cycles,
                         ga);
}

void run_kbstore(unsigned records) {
  const std::string dir = "obs_dump.kbd";
  std::filesystem::remove_all(dir);
  {
    auto store = kbstore::Store::open(dir);
    if (!store) return;
    for (unsigned i = 0; i < records; ++i) {
      kb::ExperimentRecord rec;
      rec.program = "obs_demo_" + std::to_string(i % 4);
      rec.machine = "amd-like";
      rec.kind = "sequence";
      rec.config = "dce";
      rec.cycles = 1000 + i;
      store->append(std::move(rec));
    }
    store->sync();
    store->compact();
  }
  std::filesystem::remove_all(dir);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--budget N] [--jsonl] [--trace out.json]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned budget = 16;
  bool jsonl = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--budget") && i + 1 < argc) {
      budget = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--jsonl")) {
      jsonl = true;
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  if (!trace_path.empty()) obs::Tracer::set_enabled(true);

  run_searches("fir", budget);
  run_searches("crc32", budget);
  run_kbstore(/*records=*/64);

  const obs::RegistrySnapshot snap = obs::Registry::instance().snapshot();
  const std::string text =
      jsonl ? obs::to_json_lines(snap) : obs::to_prometheus(snap);
  std::fputs(text.c_str(), stdout);

  if (!trace_path.empty()) {
    const std::string trace = obs::Tracer::drain_chrome_trace();
    std::FILE* f = std::fopen(trace_path.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu bytes of trace to %s\n", trace.size(),
                 trace_path.c_str());
  }
  return 0;
}
