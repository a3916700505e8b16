// ilc::obs tests: registry counters/gauges/histograms under concurrency,
// exporter formats, span nesting and cross-thread trace propagation, ring
// buffer wraparound, and the disabled-mode no-op guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

namespace {

using namespace ilc;

// ---- metrics registry ----------------------------------------------------

TEST(ObsMetrics, CounterExactUnderConcurrency) {
  obs::Registry reg;
  obs::Counter c = reg.counter("test.counter");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  const obs::RegistrySnapshot snap = reg.snapshot();
  ASSERT_NE(snap.counter("test.counter"), nullptr);
  EXPECT_EQ(snap.counter("test.counter")->value, kThreads * kPerThread);
}

TEST(ObsMetrics, SameNameYieldsSameMetricDistinctRegistriesIsolate) {
  obs::Registry a, b;
  obs::Counter a1 = a.counter("shared.name");
  obs::Counter a2 = a.counter("shared.name");
  obs::Counter bc = b.counter("shared.name");
  a1.add(3);
  a2.add(4);
  bc.add(10);
  EXPECT_EQ(a1.value(), 7u);  // both handles hit the same counter
  EXPECT_EQ(bc.value(), 10u);  // the other registry is untouched
}

TEST(ObsMetrics, DefaultHandlesAreValidNoOps) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.add(5);
  g.set(5);
  h.record(5);
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsMetrics, GaugeSetAddSub) {
  obs::Registry reg;
  obs::Gauge g = reg.gauge("test.gauge");
  g.set(10);
  EXPECT_EQ(g.add(5), 15);  // add and sub return the updated value
  EXPECT_EQ(g.sub(7), 8);
  EXPECT_EQ(g.value(), 8);
  g.sub(20);
  EXPECT_EQ(g.value(), -12);  // gauges may legitimately go negative
  EXPECT_EQ(obs::Gauge{}.add(3), 0);
}

// The admission idiom: reserve with add, undo past the limit. However the
// threads interleave, exactly `limit` of them hold a slot.
TEST(ObsMetrics, GaugeAddAdmitsExactlyUpToALimit) {
  obs::Registry reg;
  const obs::Gauge open = reg.gauge("test.open");
  constexpr std::int64_t kLimit = 3;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t)
    threads.emplace_back([&] {
      if (open.add(1) > kLimit) {
        open.sub(1);
      } else {
        admitted.fetch_add(1);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(admitted.load(), kLimit);
  EXPECT_EQ(open.value(), kLimit);
}

TEST(ObsMetrics, SnapshotValuesDefaultToZero) {
  obs::Registry reg;
  reg.counter("test.c").add(4);
  reg.gauge("test.g").set(-2);
  const obs::RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("test.c"), 4u);
  EXPECT_EQ(snap.gauge_value("test.g"), -2);
  EXPECT_EQ(snap.counter_value("test.missing"), 0u);
  EXPECT_EQ(snap.gauge_value("test.c"), 0);  // a counter is not a gauge
}

TEST(ObsMetrics, HistogramSnapshotAndPercentiles) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("test.hist", {10, 100, 1000});
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  h.record(5000);  // overflow bucket

  const obs::RegistrySnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* hs = snap.histogram("test.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 101u);
  EXPECT_EQ(hs->sum, 5050u + 5000u);
  EXPECT_EQ(hs->min, 1u);
  EXPECT_EQ(hs->max, 5000u);
  ASSERT_EQ(hs->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(hs->counts[0], 10u);     // 1..10
  EXPECT_EQ(hs->counts[1], 90u);     // 11..100
  EXPECT_EQ(hs->counts[2], 0u);
  EXPECT_EQ(hs->counts[3], 1u);

  const double p50 = hs->percentile(50.0);
  const double p95 = hs->percentile(95.0);
  EXPECT_GE(p50, static_cast<double>(hs->min));
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, static_cast<double>(hs->max));
  // p50 of 1..100 + one outlier lands in the 11..100 bucket.
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
}

TEST(ObsMetrics, HistogramConsistentUnderConcurrency) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("test.conc_hist", {8, 64, 512});
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record((t * kPerThread + i) % 1000);
    });
  for (auto& t : threads) t.join();

  const obs::RegistrySnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* hs = snap.histogram("test.conc_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : hs->counts) bucket_total += c;
  EXPECT_EQ(bucket_total, hs->count);
  EXPECT_EQ(hs->min, 0u);
  EXPECT_EQ(hs->max, 999u);
}

TEST(ObsMetrics, ExponentialBounds) {
  const std::vector<std::uint64_t> b = obs::exponential_bounds(1, 2.0, 5);
  EXPECT_EQ(b, (std::vector<std::uint64_t>{1, 2, 4, 8, 16}));
  EXPECT_FALSE(obs::default_us_bounds().empty());
}

TEST(ObsMetrics, JsonExportersContainEveryMetric) {
  obs::Registry reg;
  reg.counter("json.c").add(3);
  reg.gauge("json.g").set(-2);
  reg.histogram("json.h", {10}).record(4);
  const obs::RegistrySnapshot snap = reg.snapshot();

  const std::string lines = obs::to_json_lines(snap);
  EXPECT_NE(lines.find("\"json.c\""), std::string::npos);
  EXPECT_NE(lines.find("\"json.g\""), std::string::npos);
  EXPECT_NE(lines.find("\"json.h\""), std::string::npos);
  EXPECT_NE(lines.find("\"counter\""), std::string::npos);

  const std::string obj = obs::to_json_object(snap);
  EXPECT_EQ(obj.front(), '{');
  EXPECT_EQ(obj.back(), '}');
  EXPECT_NE(obj.find("\"counters\""), std::string::npos);
  EXPECT_NE(obj.find("\"gauges\""), std::string::npos);
  EXPECT_NE(obj.find("\"histograms\""), std::string::npos);
}

TEST(ObsMetrics, PrometheusExportFormat) {
  obs::Registry reg;
  reg.counter("svc.requests").add(7);
  reg.histogram("svc.latency-us", {10, 100}).record(50);
  const std::string prom = obs::to_prometheus(reg.snapshot());

  // Names are prefixed and sanitized: '.' and '-' become '_'.
  EXPECT_NE(prom.find("ilc_svc_requests 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ilc_svc_requests counter"), std::string::npos);
  EXPECT_NE(prom.find("ilc_svc_latency_us_bucket{le=\"10\"} 0"),
            std::string::npos);
  EXPECT_NE(prom.find("ilc_svc_latency_us_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("ilc_svc_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("ilc_svc_latency_us_sum 50"), std::string::npos);
  EXPECT_NE(prom.find("ilc_svc_latency_us_count 1"), std::string::npos);
}

// ---- profiling timers ----------------------------------------------------

TEST(ObsTimer, RecordsWhenEnabledSkipsWhenDisabled) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("test.timer_us");
  {
    obs::ScopedTimerUs t(h);
  }
  EXPECT_EQ(h.count(), 1u);

  obs::set_profiling_enabled(false);
  {
    obs::ScopedTimerUs t(h);
  }
  obs::set_profiling_enabled(true);
  EXPECT_EQ(h.count(), 1u);  // disabled timer recorded nothing
}

// ---- tracing -------------------------------------------------------------

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::set_enabled(true);
    obs::Tracer::clear();
  }
  void TearDown() override {
    obs::Tracer::set_enabled(false);
    obs::Tracer::clear();
    obs::Tracer::set_ring_capacity(4096);
  }

  static const obs::SpanRecord* find(const std::vector<obs::SpanRecord>& recs,
                                     const std::string& name) {
    for (const auto& r : recs)
      if (r.name == name) return &r;
    return nullptr;
  }
};

TEST_F(ObsTrace, NestedSpansShareTraceAndLinkParents) {
  obs::SpanContext outer_ctx, inner_ctx;
  {
    obs::Span outer("outer");
    outer_ctx = outer.context();
    EXPECT_TRUE(outer_ctx.valid());
    EXPECT_EQ(obs::Tracer::current().span_id, outer_ctx.span_id);
    {
      obs::Span inner("inner");
      inner_ctx = inner.context();
      inner.annotate("key", "value");
    }
    // Current restored to the outer span after the inner one closes.
    EXPECT_EQ(obs::Tracer::current().span_id, outer_ctx.span_id);
  }
  EXPECT_FALSE(obs::Tracer::current().valid());

  const std::vector<obs::SpanRecord> recs = obs::Tracer::records();
  const obs::SpanRecord* outer = find(recs, "outer");
  const obs::SpanRecord* inner = find(recs, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->trace_id, inner->trace_id);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(outer->parent_id, 0u);
  ASSERT_EQ(inner->annotations.size(), 1u);
  EXPECT_EQ(inner->annotations[0].first, "key");
  EXPECT_EQ(inner->annotations[0].second, "value");
}

TEST_F(ObsTrace, ExplicitInvalidParentRootsFreshTrace) {
  obs::Span a("a");
  obs::Span b("b", obs::SpanContext{});
  EXPECT_NE(a.context().trace_id, b.context().trace_id);
  EXPECT_NE(a.context().span_id, b.context().span_id);
}

TEST_F(ObsTrace, TraceScopeAdoptsContextAcrossThreads) {
  obs::SpanContext root_ctx;
  {
    obs::Span root("root");
    root_ctx = root.context();
    std::thread worker([&] {
      EXPECT_FALSE(obs::Tracer::current().valid());
      obs::TraceScope scope(root_ctx);
      EXPECT_EQ(obs::Tracer::current().span_id, root_ctx.span_id);
      obs::Span child("worker_child");
      EXPECT_EQ(child.context().trace_id, root_ctx.trace_id);
    });
    worker.join();
  }
  const std::vector<obs::SpanRecord> recs = obs::Tracer::records();
  const obs::SpanRecord* root = find(recs, "root");
  const obs::SpanRecord* child = find(recs, "worker_child");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);  // exited thread's buffer is still drainable
  EXPECT_EQ(child->trace_id, root->trace_id);
  EXPECT_EQ(child->parent_id, root->span_id);
  EXPECT_NE(child->tid, root->tid);
}

TEST_F(ObsTrace, ManualRecordAttachesToParent) {
  using Clock = std::chrono::steady_clock;
  obs::Span root("manual_root");
  const Clock::time_point t0 = Clock::now() - std::chrono::milliseconds(5);
  obs::Tracer::record("manual_wait", root.context(), t0, Clock::now(),
                      {{"queue", "default"}});
  const std::vector<obs::SpanRecord> recs = obs::Tracer::records();
  const obs::SpanRecord* rec = find(recs, "manual_wait");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->trace_id, root.context().trace_id);
  EXPECT_EQ(rec->parent_id, root.context().span_id);
  EXPECT_GE(rec->dur_us, 4000u);  // the 5ms we backdated, minus rounding
}

TEST_F(ObsTrace, RingBufferKeepsNewestOnWraparound) {
  obs::Tracer::set_ring_capacity(4);
  using Clock = std::chrono::steady_clock;
  static const char* names[10] = {"w0", "w1", "w2", "w3", "w4",
                                  "w5", "w6", "w7", "w8", "w9"};
  for (int i = 0; i < 10; ++i) {
    const Clock::time_point now = Clock::now();
    obs::Tracer::record(names[i], obs::SpanContext{}, now, now);
  }
  const std::vector<obs::SpanRecord> recs = obs::Tracer::records();
  ASSERT_EQ(recs.size(), 4u);
  // Oldest-first: the four newest records, in recording order.
  EXPECT_EQ(recs[0].name, "w6");
  EXPECT_EQ(recs[1].name, "w7");
  EXPECT_EQ(recs[2].name, "w8");
  EXPECT_EQ(recs[3].name, "w9");
}

TEST_F(ObsTrace, DisabledSpansAreInertAndRecordNothing) {
  obs::Tracer::set_enabled(false);
  {
    obs::Span s("ghost");
    EXPECT_FALSE(s.active());
    EXPECT_FALSE(s.context().valid());
    s.annotate("k", "v");
    EXPECT_FALSE(obs::Tracer::current().valid());
  }
  EXPECT_TRUE(obs::Tracer::records().empty());
}

TEST_F(ObsTrace, ChromeTraceJsonShape) {
  {
    obs::Span s("chrome_span");
    s.annotate("note", "hello \"world\"");
  }
  const std::string json = obs::Tracer::drain_chrome_trace();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"chrome_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"note\":\"hello \\\"world\\\"\""), std::string::npos);
  // Drained: a second drain is empty.
  EXPECT_EQ(obs::Tracer::drain_chrome_trace(), "{\"traceEvents\":[\n]}");
}

}  // namespace
