// Tuning-service tests: single-flight coalescing, persistent warm cache
// across service instances, metrics consistency under a concurrent burst,
// scheduling order, the result cache, the line protocol, and the request
// lifecycle guarantee — every submitted future resolves exactly once, in
// bounded time, under injected persist faults, overload, and deadlines.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "features/features.hpp"
#include "ir/fingerprint.hpp"
#include "ir/printer.hpp"
#include "kb/knowledge_base.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/space.hpp"
#include "support/assert.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "workloads/workloads.hpp"

namespace {

namespace fs = std::filesystem;

using namespace ilc;

svc::TuningRequest request(const std::string& program, unsigned budget = 8) {
  svc::TuningRequest req;
  req.program = program;
  req.budget = budget;
  return req;
}

/// The outcome counters of a service's metrics. Once it is drained, each
/// request sits in exactly one of them, so they add up to svc.requests.
std::uint64_t outcomes(const obs::RegistrySnapshot& m) {
  std::uint64_t sum = 0;
  for (const char* name :
       {"svc.warm_hits", "svc.coalesced", "svc.searches", "svc.errors",
        "svc.rejected", "svc.timed_out", "svc.shed"})
    sum += m.counter_value(name);
  return sum;
}

TEST(Svc, AnswersWithValidConfigAndMetrics) {
  svc::TuningService service({.workers = 2});
  const svc::TuningResponse r = service.tune(request("fir", 6));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.source, svc::Source::Search);
  EXPECT_GT(r.baseline_metric, 0u);
  EXPECT_LE(r.best_metric, r.baseline_metric);
  EXPECT_GE(r.speedup, 1.0);
  EXPECT_GT(r.simulations, 0u);

  const obs::RegistrySnapshot m = service.metrics();
  EXPECT_EQ(m.counter_value("svc.requests"), 1u);
  EXPECT_EQ(m.counter_value("svc.searches"), 1u);
  EXPECT_EQ(m.counter_value("svc.simulations"), r.simulations);
  EXPECT_EQ(m.gauge_value("svc.queued"), 0);
  EXPECT_EQ(m.gauge_value("svc.in_flight"), 0);
}

// Responses are deterministic in the request alone: fanning evaluation
// out over search workers or the evaluation pool must not change what a
// search finds.
TEST(Svc, SearchWorkersDoNotChangeResults) {
  auto genetic_request = [] {
    svc::TuningRequest req = request("rle", 30);
    req.strategy = svc::Strategy::Genetic;
    return req;
  };
  svc::TuningService sequential({.workers = 1, .search_workers = 1});
  svc::TuningService parallel({.workers = 1, .search_workers = 4});
  const svc::TuningResponse a = sequential.tune(genetic_request());
  const svc::TuningResponse b = parallel.tune(genetic_request());
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.best_metric, b.best_metric);
  EXPECT_EQ(a.baseline_metric, b.baseline_metric);

  // A random search spreads over the evaluation pool, one helper per
  // hardware thread the request workers leave idle. Workers that fill the
  // host leave no pool; one worker leaves helpers, whose simulations join
  // the request's trace.
  const std::size_t cores = std::thread::hardware_concurrency();
  if (cores < 2) GTEST_SKIP() << "an evaluation pool needs 2 hardware threads";
  auto random_request = [] {
    svc::TuningRequest req = request("rle", 30);
    req.strategy = svc::Strategy::Random;
    return req;
  };
  svc::TuningService no_pool({.workers = cores});
  const svc::TuningResponse c = no_pool.tune(random_request());
  obs::Tracer::set_enabled(true);
  obs::Tracer::clear();
  svc::TuningService pooled({.workers = 1});
  const svc::TuningResponse d = pooled.tune(random_request());
  obs::Tracer::set_enabled(false);
  const std::vector<obs::SpanRecord> recs = obs::Tracer::records();
  obs::Tracer::clear();
  ASSERT_TRUE(c.ok) << c.error;
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_EQ(c.config, d.config);
  EXPECT_EQ(c.best_metric, d.best_metric);
  EXPECT_EQ(c.baseline_metric, d.baseline_metric);

  std::uint64_t trace_id = 0;
  for (const obs::SpanRecord& rec : recs)
    if (rec.name == "svc.submit") trace_id = rec.trace_id;
  ASSERT_NE(trace_id, 0u);
  std::set<std::uint32_t> threads;
  for (const obs::SpanRecord& rec : recs) {
    if (rec.name != "search.simulate") continue;
    EXPECT_EQ(rec.trace_id, trace_id);
    threads.insert(rec.tid);
  }
  EXPECT_GT(threads.size(), 1u) << "every simulation ran on one thread";
}

// A Pareto request reports the archive — a non-empty front and its
// hypervolume against the -O0 reference — while the scalar projection
// (cycles) keeps driving best_metric/speedup. Scalar requests carry no
// archive.
TEST(Svc, ParetoObjectiveReportsFrontAndHypervolume) {
  svc::TuningService service({.workers = 1});
  svc::TuningRequest req = request("fir", 30);
  req.objective = search::Objective::Pareto;
  req.strategy = svc::Strategy::Genetic;
  const svc::TuningResponse r = service.tune(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(r.pareto_front, 1u);
  EXPECT_GT(r.hypervolume, 0.0);
  EXPECT_LE(r.best_metric, r.baseline_metric);

  const svc::TuningResponse scalar = service.tune(request("fir", 6));
  ASSERT_TRUE(scalar.ok) << scalar.error;
  EXPECT_EQ(scalar.pareto_front, 0u);
  EXPECT_EQ(scalar.hypervolume, 0.0);
}

// A service constructed over a seed KB clusters its programs once at
// startup and warm-starts searches that opt in with seeding=on.
TEST(Svc, SeedKbWarmStartsWhenRequested) {
  const char* path = "svc_test_seeds.kb";
  {
    kb::KnowledgeBase kb;
    search::SequenceSpace space;
    support::Rng rng(17);
    for (const char* name : {"dotprod", "matmul"}) {
      const auto features =
          feat::extract_static(wl::make_workload(name).module);
      for (unsigned i = 0; i < 8; ++i) {
        kb::ExperimentRecord rec;
        rec.program = name;
        rec.machine = "amd-like";
        rec.kind = "sequence";
        rec.config = search::sequence_to_string(space.sample(rng));
        rec.cycles = 100 + 10 * i;
        rec.code_size = 40 + i;
        rec.static_features = features;
        kb.add(std::move(rec));
      }
    }
    ASSERT_TRUE(kb.save(path));
  }

  svc::TuningService service({.workers = 1, .seed_kb_path = path});
  EXPECT_EQ(service.seed_bank_programs(), 2u);
  svc::TuningRequest req = request("fir", 12);
  req.strategy = svc::Strategy::Genetic;
  req.seeding = true;
  const svc::TuningResponse r = service.tune(req);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_LE(r.best_metric, r.baseline_metric);
  std::remove(path);
}

// (a) N identical concurrent requests trigger exactly one search; every
// other submission is either coalesced onto it or a warm hit after it.
TEST(Svc, IdenticalConcurrentRequestsRunOneSearch) {
  svc::TuningService service({.workers = 4});
  constexpr unsigned kClients = 16;

  std::vector<std::shared_future<svc::TuningResponse>> futures;
  futures.reserve(kClients);
  for (unsigned i = 0; i < kClients; ++i)
    futures.push_back(service.submit(request("adpcm", 30)));
  for (auto& f : futures) {
    const svc::TuningResponse r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.best_metric, futures.front().get().best_metric);
  }

  const obs::RegistrySnapshot m = service.metrics();
  EXPECT_EQ(m.counter_value("svc.requests"), kClients);
  EXPECT_EQ(m.counter_value("svc.searches"), 1u);
  EXPECT_EQ(m.counter_value("svc.coalesced") +
                m.counter_value("svc.warm_hits"),
            kClients - 1);
  // One search's budget + baseline.
  EXPECT_LE(m.counter_value("svc.simulations"), 31u);
}

// (b) A second service instance over the same KB store answers a
// previously-tuned request from the warm cache with zero simulations.
TEST(Svc, WarmCachePersistsAcrossServiceInstances) {
  const char* path = "svc_test_persist.kb";
  fs::remove_all(path);

  std::uint64_t tuned_best = 0;
  {
    svc::TuningService service({.workers = 2, .kb_path = path});
    const svc::TuningResponse r = service.tune(request("crc32", 6));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.simulations, 0u);
    tuned_best = r.best_metric;
  }
  {
    svc::TuningService service({.workers = 2, .kb_path = path});
    const svc::TuningResponse r = service.tune(request("crc32", 6));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.source, svc::Source::WarmCache);
    EXPECT_EQ(r.simulations, 0u);
    EXPECT_EQ(r.best_metric, tuned_best);

    const obs::RegistrySnapshot m = service.metrics();
    EXPECT_EQ(m.counter_value("svc.warm_hits"), 1u);
    EXPECT_EQ(m.counter_value("svc.searches"), 0u);
    EXPECT_EQ(m.counter_value("svc.simulations"), 0u);
  }
  fs::remove_all(path);
}

// The acceptance scenario for the durable store: the service dies without
// a clean shutdown, mid-append — simulated by grafting a torn frame onto
// the WAL tail — and a warm-restarted service still serves every
// previously-acknowledged result from the recovered store.
TEST(Svc, WarmRestartServesFromRecoveredStoreAfterTornWal) {
  const char* path = "svc_test_crash.kb";
  fs::remove_all(path);

  std::uint64_t fir_best = 0, rle_best = 0;
  {
    svc::TuningService service({.workers = 2, .kb_path = path});
    const svc::TuningResponse a = service.tune(request("fir", 6));
    const svc::TuningResponse b = service.tune(request("rle", 6));
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    fir_best = a.best_metric;
    rle_best = b.best_metric;
  }
  // Simulate the crash: a power cut mid-append leaves a torn frame at the
  // WAL tail (a length prefix promising more bytes than were written).
  {
    const std::string wal = std::string(path) + "/wal.ilc";
    ASSERT_TRUE(fs::is_regular_file(wal));
    std::ofstream f(wal, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x13, 0x37};  // len=64, 2 bytes follow
    f.write(torn, sizeof torn);
  }
  {
    svc::TuningService service({.workers = 2, .kb_path = path});
    const svc::TuningResponse a = service.tune(request("fir", 6));
    const svc::TuningResponse b = service.tune(request("rle", 6));
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.source, svc::Source::WarmCache);
    EXPECT_EQ(b.source, svc::Source::WarmCache);
    EXPECT_EQ(a.best_metric, fir_best);
    EXPECT_EQ(b.best_metric, rle_best);
    EXPECT_EQ(service.metrics().counter_value("svc.simulations"), 0u);
  }
  fs::remove_all(path);
}

// A CSV knowledge base at kb_path is not a store: startup refuses it,
// names the conversion, and leaves the file exactly as it was — also
// when every WAL append fails, which must not cost the file its records.
TEST(Svc, CsvKbFileRefusesToStartAndStaysIntact) {
  const char* path = "svc_test_csv_kb_path.kb";
  fs::remove_all(path);
  struct Disarm {
    ~Disarm() { support::Failpoints::instance().unset_all(); }
  } disarm;
  {
    svc::ResultCache cache;
    cache.store(svc::ResultCache::key(0xf1, search::Objective::Cycles),
                "amd-like", {"licm,dce", 123, 456});
    ASSERT_TRUE(cache.save(path));
  }
  std::string csv;
  {
    std::ifstream f(path, std::ios::binary);
    csv.assign(std::istreambuf_iterator<char>(f), {});
  }
  ASSERT_TRUE(kb::KnowledgeBase::parse(csv).has_value());

  for (const char* failpoint : {"", "kbstore.wal_append=throw"}) {
    SCOPED_TRACE(failpoint);
    if (*failpoint != '\0') {
      ASSERT_TRUE(support::Failpoints::instance().configure(failpoint));
    }
    try {
      svc::TuningService service({.workers = 1, .kb_path = path});
      ADD_FAILURE() << "a CSV file at kb_path started a service";
    } catch (const support::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("kb_tool import"),
                std::string::npos)
          << e.what();
    }
    support::Failpoints::instance().unset_all();
    ASSERT_TRUE(fs::is_regular_file(path));
    std::ifstream f(path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(f), {}), csv);
  }
  fs::remove_all(path);
}

// A kb_path holding something other than a store directory must refuse
// to start rather than silently run cold.
TEST(Svc, GarbageKbPathThrowsOnStartup) {
  const char* path = "svc_test_garbage_start.kb";
  fs::remove_all(path);
  {
    std::ofstream f(path);
    f << "not a knowledge base\n";
  }
  EXPECT_THROW(svc::TuningService({.workers = 1, .kb_path = path}),
               support::CheckError);
  fs::remove_all(path);
}

// (c) Metrics stay consistent after a concurrent burst from many client
// threads: every request is accounted for exactly once and no gauges leak.
TEST(Svc, MetricsConsistentAfterConcurrentBurst) {
  svc::TuningService service({.workers = 4});
  const std::vector<std::string> programs = {"fir", "crc32", "rle",
                                             "dotprod", "bitcount"};
  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 5;

  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        svc::TuningRequest req = request(programs[(t + i) % programs.size()], 4);
        req.priority = static_cast<int>(i % 3);
        EXPECT_TRUE(service.submit(req).get().ok);
      }
    });
  }
  for (auto& c : clients) c.join();
  service.drain();

  const obs::RegistrySnapshot m = service.metrics();
  EXPECT_EQ(m.counter_value("svc.requests"), kThreads * kPerThread);
  // Every request is accounted under exactly one outcome.
  EXPECT_EQ(outcomes(m), m.counter_value("svc.requests"));
  // Never overloaded.
  EXPECT_EQ(m.counter_value("svc.rejected") + m.counter_value("svc.timed_out") +
                m.counter_value("svc.shed"),
            0u);
  // One real search per program.
  EXPECT_EQ(m.counter_value("svc.searches"), programs.size());
  EXPECT_EQ(m.gauge_value("svc.queued"), 0);
  EXPECT_EQ(m.gauge_value("svc.in_flight"), 0);
  EXPECT_GT(m.counter_value("svc.simulations"), 0u);
}

// Protocol lines take the path every transport gives them: parse, then
// submit what parsed. A wrapped budget used to run a budget-0 search whose
// -O0 answer was stored in the KB and then served warm, config="", to
// every later request for the program.
TEST(Svc, OutOfRangeBudgetNeverReachesTheKb) {
  svc::TuningService service{svc::TuningService::Options{}};
  for (const char* line :
       {"tune crc32 budget=4294967296", "tune crc32 budget=4294967297"}) {
    const svc::Command c = svc::parse_command(line);
    EXPECT_EQ(c.kind, svc::Command::Kind::Invalid) << line;
    if (c.kind == svc::Command::Kind::Tune) service.tune(c.request);
  }
  EXPECT_EQ(service.kb_size(), 0u);

  const svc::Command plain = svc::parse_command("tune crc32");
  ASSERT_EQ(plain.kind, svc::Command::Kind::Tune);
  const svc::TuningResponse r = service.tune(plain.request);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.source, svc::Source::Search);
  EXPECT_FALSE(r.config.empty());
  EXPECT_GT(r.speedup, 1.0);
}

// A budget that fits in unsigned but would hold a worker for hours is
// refused at parse time; transports answer `err` and submit nothing, so
// it never reaches a search or the KB.
TEST(SvcProtocol, RefusesBudgetAboveTheCap) {
  const std::string over = std::to_string(svc::kMaxBudget + 1);
  const svc::Command c = svc::parse_command("tune crc32 budget=" + over);
  EXPECT_EQ(c.kind, svc::Command::Kind::Invalid);
  EXPECT_EQ(c.error, "tune: bad budget '" + over + "' (max " +
                         std::to_string(svc::kMaxBudget) + ")");

  // The tuner benchmark's GA budget, and the cap itself, still parse.
  for (const unsigned budget : {6000u, svc::kMaxBudget}) {
    const svc::Command ok =
        svc::parse_command("tune adpcm budget=" + std::to_string(budget));
    ASSERT_EQ(ok.kind, svc::Command::Kind::Tune) << budget;
    EXPECT_EQ(ok.request.budget, budget);
  }
}

// A timeout the steady clock cannot represent used to overflow
// submit time + timeout and time the request out before any search;
// now it means no deadline.
TEST(Svc, TimeoutBeyondTheClockRangeMeansNoDeadline) {
  for (const std::string v :
       {"18446744073709551615", "9223372036854775807", "9300000000000"}) {
    SCOPED_TRACE(v);
    const svc::Command c =
        svc::parse_command("tune fir budget=4 timeout_ms=" + v);
    ASSERT_EQ(c.kind, svc::Command::Kind::Tune);
    svc::TuningService service{svc::TuningService::Options{}};
    const svc::TuningResponse r = service.tune(c.request);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.source, svc::Source::Search);
    EXPECT_EQ(service.metrics().counter_value("svc.timed_out"), 0u);
  }
}

TEST(Svc, UnknownProgramYieldsErrorResponseNotThrow) {
  svc::TuningService service({.workers = 1});
  const svc::TuningResponse r = service.tune(request("no-such-workload"));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.source, svc::Source::Error);
  EXPECT_EQ(service.metrics().counter_value("svc.errors"), 1u);
}

// Inline IR that does not parse, or parses but fails ir::verify, is
// answered at submit: nothing is queued or searched, no evaluator is
// built, and the simulator never runs it. (The out-of-range global id
// used to crash the whole process inside the simulator engine.) Valid
// uploads are unaffected: ParserRoundTrip checks that every stock program
// verifies after a print/parse round trip.
TEST(Svc, MalformedInlineIrYieldsErrorResponse) {
  const struct {
    const char* what;  // also the diagnostic the reply must carry
    const char* ir;
  } cases[] = {
      {"instruction outside block", "fn main( {{{ not ir"},
      {"bad global id",
       "module m ptr=8\n"
       "func @main(0) regs=1 frame=0 {\n"
       "bb0:\n"
       "  r0 = gaddr @40000\n"
       "  ret r0\n"
       "}\n"},
      {"bad source register",
       "module m ptr=8\n"
       "func @main(0) regs=1 frame=0 {\n"
       "bb0:\n"
       "  r0 = mov r7\n"
       "  ret r0\n"
       "}\n"},
      {"bad branch target",
       "module m ptr=8\n"
       "func @main(0) regs=1 frame=0 {\n"
       "bb0:\n"
       "  r0 = imm 1\n"
       "  br r0, bb7, bb0\n"
       "}\n"},
      {"num_args exceeds num_regs",
       "module m ptr=8\n"
       "func @f(3) regs=1 frame=0 {\n"
       "bb0:\n"
       "  ret r0\n"
       "}\n"
       "func @main(0) regs=1 frame=0 {\n"
       "bb0:\n"
       "  r0 = imm 1\n"
       "  r0 = call @0(r0, r0, r0)\n"
       "  ret r0\n"
       "}\n"},
      // Every per-register table scales with regs=, so the verifier
      // bounds it: near UINT_MAX a bitset's word count would wrap to 0.
      {"too many registers",
       "module m ptr=8\n"
       "func @main(0) regs=65537 frame=0 {\n"
       "bb0:\n"
       "  r0 = imm 1\n"
       "  ret r0\n"
       "}\n"},
      {"too many registers",
       "module m ptr=8\n"
       "func @main(0) regs=4294967295 frame=0 {\n"
       "bb0:\n"
       "  r0 = imm 1\n"
       "  ret r0\n"
       "}\n"},
      {"integer out of range",
       "module m ptr=8\n"
       "func @main(0) regs=-1 frame=0 {\n"
       "bb0:\n"
       "  r0 = imm 1\n"
       "  ret r0\n"
       "}\n"},
  };
  for (const auto& c : cases) {
    svc::TuningService service({.workers = 1});
    svc::TuningRequest req = request("inline");
    req.ir_text = c.ir;
    const svc::TuningResponse r = service.tune(req);
    EXPECT_FALSE(r.ok) << c.what;
    EXPECT_EQ(svc::format_response(r).rfind("err ", 0), 0u) << c.what;
    EXPECT_NE(r.error.find(c.what), std::string::npos) << r.error;
    const obs::RegistrySnapshot m = service.metrics();
    EXPECT_EQ(m.counter_value("svc.errors"), 1u) << c.what;
    EXPECT_EQ(m.counter_value("svc.searches"), 0u) << c.what;
    EXPECT_EQ(service.evaluator_count(), 0u) << c.what;
    // The service that refused the module goes on answering.
    EXPECT_TRUE(service.tune(request("fir", 2)).ok) << c.what;
  }
}

// Inline IR shares the cache with identically-fingerprinted code: tuning a
// module shipped as text is answered warm for a repeat of the same text.
TEST(Svc, InlineIrRequestsAreCachedByFingerprint) {
  svc::TuningService service({.workers = 2});
  const std::string text = ir::to_string(wl::make_workload("dotprod").module);

  svc::TuningRequest req = request("client-module", 5);
  req.ir_text = text;
  const svc::TuningResponse first = service.tune(req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.source, svc::Source::Search);

  const svc::TuningResponse second = service.tune(req);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.source, svc::Source::WarmCache);
  EXPECT_EQ(second.simulations, 0u);
  EXPECT_EQ(second.best_metric, first.best_metric);
}

// --- the request-lifecycle guarantee under faults and overload -----------
//
// Every submitted future resolves exactly once, in bounded time, on every
// path: persist failure, non-std exceptions, queue-full load shedding,
// deadline expiry, and shutdown. Failpoints make each path deterministic.

class SvcLifecycle : public ::testing::Test {
 protected:
  void TearDown() override { support::Failpoints::instance().unset_all(); }

  static void arm(const std::string& spec) {
    ASSERT_TRUE(support::Failpoints::instance().configure(spec));
  }
  static std::uint64_t hits(const char* name) {
    return support::Failpoints::instance().hits(name);
  }
  /// Spin until `name` has been evaluated more than `min` times — i.e. a
  /// worker has arrived at (and, for `block`, parked inside) the site.
  static void wait_for_hits(const char* name, std::uint64_t min) {
    while (support::Failpoints::instance().hits(name) <= min)
      std::this_thread::yield();
  }
};

// The original bug class: a throwing KB publish after a successful search
// left the in-flight entry stuck and the promise unset — the client hung
// forever and every later duplicate coalesced onto the dead flight. Now
// the future resolves with ok=false, and a later identical submit runs a
// fresh search instead of joining a corpse.
TEST_F(SvcLifecycle, PersistFaultResolvesClientAndDoesNotPoisonFlights) {
  const char* path = "svc_test_persist_fault.kb";
  fs::remove_all(path);
  {
    svc::TuningService service({.workers = 2, .kb_path = path});

    arm("svc.persist=error");
    const svc::TuningResponse r = service.tune(request("fir", 5));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("persist failed"), std::string::npos) << r.error;
    EXPECT_EQ(r.source, svc::Source::Error);

    obs::RegistrySnapshot m = service.metrics();
    EXPECT_EQ(m.counter_value("svc.persist_errors"), 1u);
    EXPECT_EQ(m.counter_value("svc.errors"), 1u);
    EXPECT_EQ(m.gauge_value("svc.in_flight"), 0);

    // The flight was retired: with the fault cleared, the same request is
    // a fresh search (not coalesced, not a hang, not a warm hit — the
    // failed persist never reached the KB).
    support::Failpoints::instance().unset_all();
    const svc::TuningResponse again = service.tune(request("fir", 5));
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.source, svc::Source::Search);

    m = service.metrics();
    // Only the second one succeeded.
    EXPECT_EQ(m.counter_value("svc.searches"), 1u);
    EXPECT_EQ(m.counter_value("svc.coalesced"), 0u);
  }
  fs::remove_all(path);
}

// A non-std exception thrown mid-search must not escape into the pool
// worker (process terminate, every outstanding promise unresolved): the
// catch (...) path resolves the future like any other failure.
TEST_F(SvcLifecycle, NonStdExceptionResolvesInsteadOfTerminating) {
  svc::TuningService service({.workers = 1});
  arm("svc.eval_nonstd=error*1");
  const svc::TuningResponse r = service.tune(request("fir", 5));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("non-standard"), std::string::npos) << r.error;

  // The worker survived: it can still serve the next request.
  const svc::TuningResponse ok = service.tune(request("fir", 5));
  EXPECT_TRUE(ok.ok) << ok.error;
}

// Queue-full rejection is deterministic: with the single worker parked
// inside a search and the one queue slot taken, the next distinct submit
// resolves Rejected immediately.
TEST_F(SvcLifecycle, QueueFullRejectionIsDeterministic) {
  svc::TuningService service({.workers = 1, .max_queue = 1});
  const std::uint64_t base = hits("svc.eval");
  arm("svc.eval=block");

  auto a = service.submit(request("fir", 5));
  wait_for_hits("svc.eval", base);  // worker is parked inside a's search
  auto b = service.submit(request("crc32", 5));  // takes the queue slot

  const svc::TuningResponse r = service.submit(request("rle", 5)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.source, svc::Source::Rejected);
  EXPECT_NE(r.error.find("queue full"), std::string::npos) << r.error;
  EXPECT_EQ(service.metrics().counter_value("svc.rejected"), 1u);

  support::Failpoints::instance().unset_all();  // release the worker
  EXPECT_TRUE(a.get().ok) << a.get().error;
  EXPECT_TRUE(b.get().ok) << b.get().error;
}

// Overload degrades gracefully: when the queue is full but the service
// has *ever* computed a result for this flight — even one whose KB
// persist failed — it serves that stale copy instead of rejecting.
TEST_F(SvcLifecycle, OverloadServesStaleResultWhenAvailable) {
  svc::TuningService service({.workers = 1, .max_queue = 1});

  // Compute "fir" once with the persist path broken: the result lands in
  // the stale map but never in the KB cache.
  arm("svc.persist=error*1");
  const svc::TuningResponse first = service.tune(request("fir", 5));
  EXPECT_FALSE(first.ok);
  EXPECT_GT(first.best_metric, 0u);

  // Park the worker and fill the queue with distinct work.
  const std::uint64_t base = hits("svc.eval");
  arm("svc.eval=block");
  auto blocked = service.submit(request("crc32", 5));
  wait_for_hits("svc.eval", base);
  auto queued = service.submit(request("rle", 5));

  // Overloaded "fir" submit: served stale, not rejected, not hung.
  const svc::TuningResponse stale = service.submit(request("fir", 5)).get();
  EXPECT_TRUE(stale.ok);
  EXPECT_EQ(stale.source, svc::Source::StaleCache);
  EXPECT_EQ(stale.best_metric, first.best_metric);
  EXPECT_EQ(stale.baseline_metric, first.baseline_metric);
  EXPECT_EQ(service.metrics().counter_value("svc.shed"), 1u);
  EXPECT_EQ(service.metrics().counter_value("svc.rejected"), 0u);

  support::Failpoints::instance().unset_all();
  EXPECT_TRUE(blocked.get().ok);
  EXPECT_TRUE(queued.get().ok);
}

// A job whose deadline passes while it waits in the queue resolves as
// TimedOut without running a search (and without a simulation spent).
TEST_F(SvcLifecycle, ExpiredDeadlineResolvesTimedOutWithoutSearch) {
  svc::TuningService service({.workers = 1});
  const std::uint64_t base = hits("svc.eval");
  arm("svc.eval=block");

  auto a = service.submit(request("fir", 5));
  wait_for_hits("svc.eval", base);  // worker busy: the next job must wait

  svc::TuningRequest req = request("crc32", 5);
  req.timeout_ms = 1;
  auto b = service.submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  support::Failpoints::instance().unset_all();  // release the worker
  const svc::TuningResponse r = b.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.source, svc::Source::TimedOut);
  EXPECT_NE(r.error.find("deadline exceeded"), std::string::npos) << r.error;
  EXPECT_EQ(r.simulations, 0u);
  EXPECT_TRUE(a.get().ok);

  const obs::RegistrySnapshot m = service.metrics();
  EXPECT_EQ(m.counter_value("svc.timed_out"), 1u);
  EXPECT_EQ(m.counter_value("svc.searches"), 1u);  // only "fir" ever ran
  EXPECT_EQ(m.gauge_value("svc.queued"), 0);
  EXPECT_EQ(m.gauge_value("svc.in_flight"), 0);
}

// Destruction drains the queue and resolves every outstanding future even
// while every persist attempt fails — shutdown can never strand a client.
TEST_F(SvcLifecycle, DestructorResolvesAllFuturesUnderPersistFaults) {
  const char* path = "svc_test_drain_fault.kb";
  fs::remove_all(path);
  arm("svc.persist=error");

  std::vector<std::shared_future<svc::TuningResponse>> futures;
  {
    svc::TuningService service({.workers = 2, .kb_path = path});
    for (const char* p : {"fir", "crc32", "rle", "dotprod", "bitcount"})
      futures.push_back(service.submit(request(p, 4)));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const svc::TuningResponse r = f.get();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("persist failed"), std::string::npos) << r.error;
  }
  fs::remove_all(path);
}

// Each request is counted once, under the outcome its reply names, before
// the reply reaches the client. One service is driven through every
// outcome; the replies, tallied by source, match the counters.
TEST_F(SvcLifecycle, EveryOutcomeIsCountedOnceUnderItsReply) {
  svc::TuningService::Options opts;
  opts.workers = 1;
  opts.max_queue = 1;
  svc::TuningService service(opts);
  const std::map<svc::Source, std::string> counter_of = {
      {svc::Source::Search, "svc.searches"},
      {svc::Source::WarmCache, "svc.warm_hits"},
      {svc::Source::Error, "svc.errors"},
      {svc::Source::Rejected, "svc.rejected"},
      {svc::Source::StaleCache, "svc.shed"},
      {svc::Source::TimedOut, "svc.timed_out"}};
  std::map<std::string, std::uint64_t> tally;
  std::uint64_t sims = 0;
  const auto note = [&](const svc::TuningResponse& r) {
    ++tally[counter_of.at(r.source)];
    if (r.source == svc::Source::Search) sims += r.simulations;
  };

  note(service.tune(request("fir", 5)));             // search
  note(service.tune(request("fir", 5)));             // warm hit
  note(service.tune(request("no-such-workload")));  // malformed
  arm("svc.persist=error*1");
  note(service.tune(request("crc32", 5)));  // persist failure, kept stale

  const std::uint64_t base = hits("svc.eval");
  arm("svc.eval=block");
  auto flight = service.submit(request("rle", 5));
  wait_for_hits("svc.eval", base);  // the worker is parked in rle's search
  auto joined = service.submit(request("rle", 5));
  svc::TuningRequest late = request("dotprod", 5);
  late.timeout_ms = 1;
  auto expired = service.submit(late);  // takes the one queue slot
  note(service.submit(request("bitcount", 5)).get());  // rejected
  note(service.submit(request("crc32", 5)).get());     // shed
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  support::Failpoints::instance().unset_all();  // release the worker
  note(flight.get());
  // The duplicate shares its flight's reply.
  EXPECT_EQ(joined.get().source, svc::Source::Search);
  ++tally["svc.coalesced"];
  note(expired.get());
  service.drain();

  const obs::RegistrySnapshot m = service.metrics();
  EXPECT_EQ(tally.size(), 7u);  // every outcome was reached
  for (const auto& [name, n] : tally)
    EXPECT_EQ(m.counter_value(name), n) << name;
  EXPECT_EQ(m.counter_value("svc.requests"), 9u);
  EXPECT_EQ(outcomes(m), m.counter_value("svc.requests"));
  EXPECT_EQ(m.counter_value("svc.persist_errors"), 1u);
  EXPECT_EQ(m.counter_value("svc.simulations"), sims);
  const obs::HistogramSnapshot* latency = m.histogram("svc.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, m.counter_value("svc.requests") -
                                m.counter_value("svc.coalesced"));
  EXPECT_EQ(m.gauge_value("svc.queued"), 0);
  EXPECT_EQ(m.gauge_value("svc.in_flight"), 0);
}

// The evaluator cache is bounded (LRU): a service capped at one evaluator
// evicts and re-creates them across requests, and the recreated evaluator
// gives results identical to a service that kept everything cached.
TEST_F(SvcLifecycle, EvaluatorEvictionPreservesResults) {
  auto run_sequence = [](svc::TuningService& s) {
    std::vector<svc::TuningResponse> out;
    out.push_back(s.tune(request("fir", 6)));
    out.push_back(s.tune(request("crc32", 6)));
    svc::TuningRequest size_req = request("fir", 6);
    size_req.objective = search::Objective::CodeSize;  // new cache key,
    out.push_back(s.tune(size_req));                   // same eval key
    return out;
  };

  svc::TuningService unbounded({.workers = 1, .evaluator_cache = 64});
  svc::TuningService tight({.workers = 1, .evaluator_cache = 1});
  const auto full = run_sequence(unbounded);
  const auto evicted = run_sequence(tight);

  EXPECT_EQ(unbounded.evaluator_count(), 2u);  // fir + crc32
  EXPECT_EQ(tight.evaluator_count(), 1u);      // only the latest survives

  ASSERT_EQ(full.size(), evicted.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_TRUE(full[i].ok) << full[i].error;
    ASSERT_TRUE(evicted[i].ok) << evicted[i].error;
    EXPECT_EQ(full[i].config, evicted[i].config) << i;
    EXPECT_EQ(full[i].best_metric, evicted[i].best_metric) << i;
    EXPECT_EQ(full[i].baseline_metric, evicted[i].baseline_metric) << i;
  }
}

// The same semantics on both backings of the one store: the in-memory
// store of a default-constructed cache and a durable store directory.
TEST(SvcCache, StoreLookupAndBetterResultWins) {
  const char* path = "svc_test_cache_store.kb";
  fs::remove_all(path);
  svc::ResultCache memory;
  auto durable = svc::ResultCache::open_durable(path);
  ASSERT_TRUE(durable.has_value());
  for (svc::ResultCache* cache : {&memory, &*durable}) {
    SCOPED_TRACE(cache == &memory ? "in memory" : "durable");
    const std::string key =
        svc::ResultCache::key(0xabcd, search::Objective::Cycles);
    EXPECT_FALSE(cache->lookup(key, "amd-like").has_value());

    cache->store(key, "amd-like", {"licm,dce", 100, 250});
    auto hit = cache->lookup(key, "amd-like");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->config, "licm,dce");
    EXPECT_EQ(hit->best_metric, 100u);
    EXPECT_EQ(hit->baseline_metric, 250u);
    EXPECT_FALSE(cache->lookup(key, "c6713-like").has_value());

    cache->store(key, "amd-like", {"cse", 150, 250});  // worse: ignored
    EXPECT_EQ(cache->lookup(key, "amd-like")->config, "licm,dce");
    cache->store(key, "amd-like", {"cse,licm", 80, 250});  // better: replaces
    EXPECT_EQ(cache->lookup(key, "amd-like")->best_metric, 80u);
    // Upsert semantics: still one best + one baseline record per key.
    EXPECT_EQ(cache->size(), 2u);
    EXPECT_TRUE(cache->sync());
  }
  durable.reset();
  fs::remove_all(path);
}

// save() exports the standard CSV format: the service's best and baseline
// records, readable by any knowledge-base tool.
TEST(SvcCache, RoundTripsThroughKnowledgeBaseFormat) {
  const char* path = "svc_test_cache.kb";
  std::remove(path);
  {
    svc::ResultCache cache;
    cache.store(svc::ResultCache::key(1, search::Objective::Cycles),
                "amd-like", {"licm", 10, 20});
    ASSERT_TRUE(cache.save(path));
  }
  const auto base = kb::KnowledgeBase::load(path);
  ASSERT_TRUE(base.has_value());
  ASSERT_EQ(base->size(), 2u);
  const std::string key = svc::ResultCache::key(1, search::Objective::Cycles);
  const kb::ExperimentRecord& best = base->records()[0];
  EXPECT_EQ(best.program, key);
  EXPECT_EQ(best.machine, "amd-like");
  EXPECT_EQ(best.kind, "svc-best");
  EXPECT_EQ(best.config, "licm");
  EXPECT_EQ(best.cycles, 10u);
  const kb::ExperimentRecord& baseline = base->records()[1];
  EXPECT_EQ(baseline.program, key);
  EXPECT_EQ(baseline.kind, "svc-base");
  EXPECT_EQ(baseline.cycles, 20u);
  std::remove(path);
}

TEST(SvcProtocol, ParsesTuneWithOptions) {
  const svc::Command c = svc::parse_command(
      "tune fir machine=c6713 budget=25 objective=size strategy=genetic "
      "priority=3 seed=99");
  ASSERT_EQ(c.kind, svc::Command::Kind::Tune);
  EXPECT_EQ(c.request.program, "fir");
  EXPECT_EQ(c.request.machine.name, "c6713-like");
  EXPECT_EQ(c.request.budget, 25u);
  EXPECT_EQ(c.request.objective, search::Objective::CodeSize);
  EXPECT_EQ(c.request.strategy, svc::Strategy::Genetic);
  EXPECT_EQ(c.request.priority, 3);
  EXPECT_EQ(c.request.seed, 99u);
}

TEST(SvcProtocol, ParsesTimeoutMs) {
  const svc::Command c = svc::parse_command("tune fir timeout_ms=250");
  ASSERT_EQ(c.kind, svc::Command::Kind::Tune);
  EXPECT_EQ(c.request.timeout_ms, 250u);
  EXPECT_EQ(svc::parse_command("tune fir timeout_ms=soon").kind,
            svc::Command::Kind::Invalid);
}

// A budget is an unsigned evaluation count: a value past its range is
// refused at parse time instead of wrapping (4294967296 used to run as a
// budget-0 search, 4294967297 as budget 1).
TEST(SvcProtocol, RejectsBudgetBeyondUnsignedRange) {
  const svc::Command max = svc::parse_command("tune crc32 budget=4294967295");
  EXPECT_EQ(max.kind, svc::Command::Kind::Invalid);
  for (const std::string v :
       {"4294967296", "4294967297", "18446744073709551616"}) {
    const svc::Command c = svc::parse_command("tune crc32 budget=" + v);
    EXPECT_EQ(c.kind, svc::Command::Kind::Invalid) << v;
    EXPECT_EQ(c.error, "tune: bad budget '" + v + "'");
  }
}

TEST(SvcProtocol, ParsesParetoObjectiveAndSeeding) {
  const svc::Command c =
      svc::parse_command("tune fir objective=pareto seeding=on");
  ASSERT_EQ(c.kind, svc::Command::Kind::Tune);
  EXPECT_EQ(c.request.objective, search::Objective::Pareto);
  EXPECT_TRUE(c.request.seeding);

  const svc::Command off = svc::parse_command("tune fir seeding=off");
  ASSERT_EQ(off.kind, svc::Command::Kind::Tune);
  EXPECT_FALSE(off.request.seeding);

  EXPECT_EQ(svc::parse_command("tune fir seeding=maybe").kind,
            svc::Command::Kind::Invalid);
  EXPECT_EQ(svc::parse_command("tune fir objective=area").kind,
            svc::Command::Kind::Invalid);
}

TEST(SvcProtocol, FormatsParetoFrontOnlyWhenPresent) {
  svc::TuningResponse r;
  r.ok = true;
  r.program = "p";
  r.config = "dce";
  const std::string scalar = svc::format_response(r);
  EXPECT_EQ(scalar.find("front="), std::string::npos) << scalar;

  r.pareto_front = 3;
  r.hypervolume = 1234.5;
  const std::string pareto = svc::format_response(r);
  EXPECT_NE(pareto.find(" front=3"), std::string::npos) << pareto;
  EXPECT_NE(pareto.find(" hv=1234.5"), std::string::npos) << pareto;
}

TEST(SvcCache, ObjectivesKeySeparately) {
  const std::string cycles = svc::ResultCache::key(7, search::Objective::Cycles);
  const std::string size = svc::ResultCache::key(7, search::Objective::CodeSize);
  const std::string pareto = svc::ResultCache::key(7, search::Objective::Pareto);
  EXPECT_NE(cycles, size);
  EXPECT_NE(cycles, pareto);
  EXPECT_NE(size, pareto);
}

TEST(SvcProtocol, EscapesConfigQuotesAndBackslashes) {
  svc::TuningResponse r;
  r.ok = true;
  r.program = "p";
  r.config = "a\"b\\c";
  const std::string line = svc::format_response(r);
  EXPECT_NE(line.find("config=\"a\\\"b\\\\c\""), std::string::npos) << line;

  r.config = "tab\there";
  EXPECT_NE(svc::format_response(r).find("config=\"tab here\""),
            std::string::npos);  // control chars become spaces
}

TEST(SvcProtocol, ErrorTextStaysOnOneLine) {
  svc::TuningResponse r;
  r.ok = false;
  r.error = "line one\nline two";
  EXPECT_EQ(svc::format_response(r), "err line one line two");
}

TEST(SvcProtocol, RejectsControlCharsInOptionValues) {
  EXPECT_EQ(svc::parse_command("tune fir seed=1\x01").kind,
            svc::Command::Kind::Invalid);
  EXPECT_EQ(svc::parse_command(std::string("tune fir machine=amd\x7f")).kind,
            svc::Command::Kind::Invalid);
}

TEST(SvcProtocol, RejectsMalformedLines) {
  EXPECT_EQ(svc::parse_command("tune").kind, svc::Command::Kind::Invalid);
  EXPECT_EQ(svc::parse_command("tune fir budget=x").kind,
            svc::Command::Kind::Invalid);
  EXPECT_EQ(svc::parse_command("tune fir machine=sparc").kind,
            svc::Command::Kind::Invalid);
  EXPECT_EQ(svc::parse_command("frobnicate").kind,
            svc::Command::Kind::Invalid);
  EXPECT_EQ(svc::parse_command("module only-name").kind,
            svc::Command::Kind::Invalid);
}

TEST(SvcProtocol, RejectsOverlongRequestLines) {
  // A line at the limit parses (content errors aside); one past it is
  // rejected outright, before any tokenization.
  const std::string pad(svc::kMaxRequestLine - 18, 'p');
  EXPECT_EQ(svc::parse_command("tune fir comment=x" + pad).kind,
            svc::Command::Kind::Invalid);  // unknown option, but parsed
  const svc::Command over =
      svc::parse_command(std::string(svc::kMaxRequestLine + 1, 'x'));
  EXPECT_EQ(over.kind, svc::Command::Kind::Invalid);
  EXPECT_NE(over.error.find("too long"), std::string::npos) << over.error;
  // The guard is total: even a would-be-valid command is refused.
  const svc::Command big_tune = svc::parse_command(
      "tune fir budget=2 # " + std::string(svc::kMaxRequestLine, 'z'));
  EXPECT_EQ(big_tune.kind, svc::Command::Kind::Invalid);
  EXPECT_NE(big_tune.error.find("too long"), std::string::npos);
}

TEST(SvcProtocol, SkipsBlanksAndCommentsParsesControlLines) {
  EXPECT_EQ(svc::parse_command("").kind, svc::Command::Kind::Empty);
  EXPECT_EQ(svc::parse_command("  # comment").kind, svc::Command::Kind::Empty);
  EXPECT_EQ(svc::parse_command("metrics").kind, svc::Command::Kind::Metrics);
  EXPECT_EQ(svc::parse_command("quit").kind, svc::Command::Kind::Quit);
  const svc::Command save = svc::parse_command("save out.kb");
  EXPECT_EQ(save.kind, svc::Command::Kind::Save);
  EXPECT_EQ(save.path, "out.kb");
  const svc::Command mod = svc::parse_command("module m 3");
  EXPECT_EQ(mod.kind, svc::Command::Kind::Module);
  EXPECT_EQ(mod.module_name, "m");
  EXPECT_EQ(mod.module_lines, 3u);
}

// A tuning request is traceable end-to-end: scheduling, cache lookup,
// evaluation, and KB persistence all carry the submit span's trace ID,
// across the client/worker thread boundary, and the buffers drain as
// Chrome trace_event JSON.
TEST(SvcTrace, RequestSpansShareOneTraceId) {
  const char* path = "svc_test_trace.kb";
  fs::remove_all(path);
  obs::Tracer::set_enabled(true);
  obs::Tracer::clear();
  {
    svc::TuningService service({.workers = 2, .kb_path = path});
    const svc::TuningResponse r = service.tune(request("fir", 6));
    ASSERT_TRUE(r.ok) << r.error;
  }

  const std::vector<obs::SpanRecord> recs = obs::Tracer::records();
  auto find = [&](const std::string& name) -> const obs::SpanRecord* {
    for (const auto& rec : recs)
      if (rec.name == name) return &rec;
    return nullptr;
  };
  const obs::SpanRecord* submit = find("svc.submit");
  const obs::SpanRecord* lookup = find("svc.cache_lookup");
  const obs::SpanRecord* wait = find("svc.sched.wait");
  const obs::SpanRecord* eval = find("svc.eval");
  const obs::SpanRecord* persist = find("svc.kb_persist");
  ASSERT_NE(submit, nullptr);
  ASSERT_NE(lookup, nullptr);
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(eval, nullptr);
  ASSERT_NE(persist, nullptr);

  EXPECT_NE(submit->trace_id, 0u);
  EXPECT_EQ(submit->parent_id, 0u);  // the request's root span
  for (const obs::SpanRecord* rec : {lookup, wait, eval, persist})
    EXPECT_EQ(rec->trace_id, submit->trace_id) << rec->name;
  EXPECT_EQ(wait->parent_id, submit->span_id);
  // Evaluation and persistence happened on a worker thread, inside the
  // adopted trace, not on the submitting thread.
  EXPECT_NE(eval->tid, submit->tid);
  // The search's own spans join the same trace through the worker scope.
  const obs::SpanRecord* sim = find("search.simulate");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->trace_id, submit->trace_id);

  const std::string json = obs::Tracer::drain_chrome_trace();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"svc.submit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  obs::Tracer::set_enabled(false);
  obs::Tracer::clear();
  fs::remove_all(path);
}

// The `metrics` protocol verb is a stability surface: rendering it from the
// service's registry must not change a byte of its output.
TEST(SvcProtocol, FormatMetricsIsByteCompatible) {
  obs::Registry reg;
  reg.counter("svc.requests").add(12);
  reg.counter("svc.warm_hits").add(3);
  reg.counter("svc.coalesced").add(2);
  reg.counter("svc.searches").add(6);
  reg.counter("svc.errors").add(1);
  reg.counter("svc.rejected").add(4);
  reg.counter("svc.timed_out").add(2);
  reg.counter("svc.shed").add(3);
  reg.counter("svc.persist_errors").add(1);
  reg.gauge("svc.queued").set(4);
  reg.gauge("svc.in_flight").set(2);
  reg.counter("svc.simulations").add(180);
  // Bucket bounds at the two estimates make both exact: 10 of 20 values
  // are at most 1500 (p50), 19 of 20 at most 9000 (p95).
  const obs::Histogram latency = reg.histogram("svc.latency_us", {1500, 9000});
  for (int i = 0; i < 10; ++i) latency.record(1000);
  for (int i = 0; i < 9; ++i) latency.record(5000);
  latency.record(20000);
  EXPECT_EQ(svc::format_metrics(reg.snapshot()),
            "metrics requests=12 warm_hits=3 coalesced=2 searches=6 "
            "errors=1 rejected=4 timed_out=2 shed=3 persist_errors=1 "
            "queued=4 in_flight=2 simulations=180 "
            "p50_latency_us=1500 p95_latency_us=9000");
}

TEST(SvcProtocol, FormatsResponsesAndMetrics) {
  svc::TuningResponse r;
  r.ok = true;
  r.program = "fir";
  r.config = "licm,dce";
  r.baseline_metric = 200;
  r.best_metric = 100;
  r.speedup = 2.0;
  r.source = svc::Source::WarmCache;
  const std::string line = svc::format_response(r);
  EXPECT_NE(line.find("ok program=fir"), std::string::npos);
  EXPECT_NE(line.find("source=warm"), std::string::npos);
  EXPECT_NE(line.find("config=\"licm,dce\""), std::string::npos);

  r.ok = false;
  r.error = "boom";
  EXPECT_EQ(svc::format_response(r), "err boom");

  obs::Registry reg;
  reg.counter("svc.requests").add(7);
  reg.gauge("svc.queued").set(-1);  // printed clamped at 0
  const std::string mline = svc::format_metrics(reg.snapshot());
  EXPECT_NE(mline.find("metrics requests=7 warm_hits=0 "), std::string::npos)
      << mline;
  EXPECT_NE(mline.find(" queued=0 "), std::string::npos) << mline;
}

}  // namespace
