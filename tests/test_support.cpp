// Unit tests for the support substrate: RNG determinism and statistics,
// hashing, thread pool / parallel_for, tables, CSV round-trips, strings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "support/assert.hpp"
#include "support/crc32.hpp"
#include "support/csv.hpp"
#include "support/failpoint.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace ilc::support;

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng r(3);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo_seen |= (v == -2);
    hi_seen |= (v == 2);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng r(5);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(r.next_weighted(w), 1u);
}

TEST(Rng, WeightedApproximatesDistribution) {
  Rng r(6);
  std::vector<double> w = {1.0, 3.0};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.next_weighted(w) == 1) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(1);
  Rng a = base.fork(0);
  Rng b = base.fork(1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Hash, StableAndSensitive) {
  EXPECT_EQ(hash_bytes("abc", 3), hash_bytes("abc", 3));
  EXPECT_NE(hash_bytes("abc", 3), hash_bytes("abd", 3));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Hash, HasherStrIncludesLength) {
  Hasher a, b;
  a.str("ab").str("c");
  b.str("a").str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Stats, MeanVarStd) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, GeomeanOfPowers) {
  std::vector<double> v = {1, 4};
  EXPECT_DOUBLE_EQ(geomean(v), 2.0);
}

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  parallel_for(&pool, 0, 500, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(&pool, 0, 10,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  parallel_for(&pool, 5, 5, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, CallerTakesPartOnAtMostPoolSizeThreads) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::mutex mu;
  std::set<std::thread::id> ids;
  // Workers hold each iteration until the caller has run one (or the
  // deadline passes), so a caller that only waited on the pool shows up
  // as caller_ran == false.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  parallel_for(&pool, 0, 64, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) caller_ran = true;
    while (!caller_ran && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_TRUE(caller_ran);
  EXPECT_EQ(ids.count(caller), 1u);
  // Every pool thread is a helper: the caller plus at most pool.size().
  EXPECT_LE(ids.size(), pool.size() + 1);
}

/// Spin until `flag` is set or `limit` has passed; true when it was set.
bool wait_for_flag(const std::atomic<bool>& flag,
                   std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!flag) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ParallelFor, SharedPoolBatchDoesNotWaitForAnotherBatch) {
  // Two batches share one pool. The slow batch parks one item on a pool
  // thread; the quick batch must return while that item still runs. A
  // pool-wide barrier would hold it until the item gives up (~2 s).
  ThreadPool pool(2);
  std::atomic<bool> slow_started{false}, release{false}, slow_done{false};
  std::thread slow([&] {
    const std::thread::id self = std::this_thread::get_id();
    parallel_for(&pool, 0, 2, [&](std::size_t) {
      if (std::this_thread::get_id() == self) {
        // Hold this index until a helper has the other one.
        wait_for_flag(slow_started, std::chrono::seconds(2));
        return;
      }
      slow_started = true;
      wait_for_flag(release, std::chrono::seconds(2));
      slow_done = true;
    });
  });
  ASSERT_TRUE(wait_for_flag(slow_started, std::chrono::seconds(2)));

  std::atomic<int> quick{0};
  parallel_for(&pool, 0, 8, [&](std::size_t) { ++quick; });
  EXPECT_EQ(quick.load(), 8);
  EXPECT_FALSE(slow_done) << "the quick batch waited for the other batch";
  release = true;
  slow.join();
  EXPECT_TRUE(slow_done);
}

TEST(ParallelFor, LateHelperClaimsNothing) {
  // The pool's one thread is busy, so the batch's helper job waits in the
  // queue; the caller runs every index and returns without it. When the
  // helper finally starts, fn has gone out of scope: it must not run.
  ThreadPool pool(1);
  std::atomic<bool> unblock{false};
  pool.submit([&] { wait_for_flag(unblock, std::chrono::seconds(5)); });
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<int> off_caller{0};
  {
    const std::function<void(std::size_t)> fn = [&](std::size_t) {
      ++calls;
      if (std::this_thread::get_id() != caller) ++off_caller;
    };
    parallel_for(&pool, 0, 4, fn);
  }
  EXPECT_EQ(calls.load(), 4);
  unblock = true;
  pool.wait_idle();  // the late helper has run by now
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ThreadPool, WaitIdleWithNoSubmittedJobsReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock or spin
  pool.wait_idle();  // and must be repeatable
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.wait_idle();  // idempotent after completed work too
}

TEST(ThreadPool, SingleThreadPoolRunsEveryJob) {
  // The hardware_concurrency()==1 configuration: one worker, strictly
  // sequential execution, same results as any other width.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);  // FIFO, one worker
}

TEST(ParallelFor, SingleThreadDegradesToInlineLoop) {
  // No pool at all, and a one-index range on any pool, run the iterations
  // on the calling thread, in order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(nullptr, 3, 9, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8}));
  ThreadPool pool(1);
  order.clear();
  parallel_for(&pool, 3, 4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{3}));

  // A one-thread pool is one helper: the caller holds its first index
  // until the pool thread has run one too.
  std::atomic<bool> helper_ran{false};
  bool caller_waited = false;  // only the caller's thread touches it
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(&pool, 0, 16, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) {
      helper_ran = true;
    } else if (!caller_waited) {
      caller_waited = true;
      wait_for_flag(helper_ran, std::chrono::seconds(5));
    }
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_TRUE(helper_ran);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(ParallelFor, SingleThreadPropagatesExceptionInline) {
  // The inline loops (no pool; a one-index range) stop at the throwing
  // iteration.
  int ran = 0;
  EXPECT_THROW(parallel_for(nullptr, 0, 4,
                            [&](std::size_t i) {
                              ++ran;
                              if (i == 1) throw std::runtime_error("inline");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran, 2);
  ThreadPool pool(1);
  ran = 0;
  EXPECT_THROW(parallel_for(&pool, 7, 8,
                            [&](std::size_t) {
                              ++ran;
                              throw std::runtime_error("inline");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran, 1);
}

TEST(ParallelFor, ExceptionDoesNotPoisonLaterIterations) {
  // Concurrent path: the first captured exception, the caller's own
  // included, is rethrown only after every iteration finished, so all
  // indices are still visited.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(parallel_for(&pool, 0, 64,
                            [&](std::size_t i) {
                              ++hits[i];
                              if (i % 7 == 0) throw std::runtime_error("x");
                            }),
               std::runtime_error);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"x", "1.50"});
  t.add_row({"longer", "20.25"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   |"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
}

TEST(Table, NumFormatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1234567LL), "1,234,567");
  EXPECT_EQ(Table::num(-42LL), "-42");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Csv, RoundTripsQuotedCells) {
  CsvWriter w;
  w.row({"a", "b,with comma", "c\"quote"});
  w.row({"1", "2", "3"});
  const auto rows = parse_csv(w.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b,with comma");
  EXPECT_EQ(rows[0][2], "c\"quote");
  EXPECT_EQ(rows[1][0], "1");
}

TEST(Csv, ParsesEmptyCells) {
  const auto rows = parse_csv("a,,c\n");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][1], "");
}

TEST(Strings, SplitAndJoin) {
  const auto parts = split("a:b::c", ':');
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Strings, SplitWsDropsEmpties) {
  const auto parts = split_ws("  a \t b\nc  ");
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Crc32, MatchesKnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
  EXPECT_NE(crc32(std::string_view("a")), crc32(std::string_view("b")));
}

TEST(Crc32, IncrementalChainingEqualsOneShot) {
  const std::string data = "the knowledge base write-ahead log";
  const std::uint32_t whole = crc32(data.data(), data.size());
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const std::uint32_t head = crc32(data.data(), cut);
    EXPECT_EQ(crc32(data.data() + cut, data.size() - cut, head), whole);
  }
}

TEST(Assert, CheckThrowsWithMessage) {
  try {
    ILC_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL();
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

// Failpoints are disarmed between tests so suites can't leak faults.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::instance().unset_all(); }
};

TEST_F(FailpointTest, DisarmedSitesAreInert) {
  EXPECT_FALSE(Failpoints::instance().armed());
  EXPECT_FALSE(failpoint("never.armed"));
  EXPECT_EQ(Failpoints::instance().hits("never.armed"), 0u);
}

TEST_F(FailpointTest, ErrorKindReturnsTrueAndCountsHits) {
  ASSERT_TRUE(Failpoints::instance().configure("site.a=error"));
  EXPECT_TRUE(Failpoints::instance().armed());
  EXPECT_TRUE(failpoint("site.a"));
  EXPECT_TRUE(failpoint("site.a"));
  EXPECT_FALSE(failpoint("site.b"));  // other names unaffected
  EXPECT_EQ(Failpoints::instance().hits("site.a"), 2u);
  Failpoints::instance().unset("site.a");
  EXPECT_FALSE(failpoint("site.a"));
}

TEST_F(FailpointTest, ThrowKindThrowsFailpointError) {
  ASSERT_TRUE(Failpoints::instance().configure("site.t=throw:boom"));
  try {
    failpoint("site.t");
    FAIL() << "should have thrown";
  } catch (const FailpointError& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST_F(FailpointTest, CountLimitSelfDisarms) {
  ASSERT_TRUE(Failpoints::instance().configure("site.c=error*2"));
  EXPECT_TRUE(failpoint("site.c"));
  EXPECT_TRUE(failpoint("site.c"));
  EXPECT_FALSE(failpoint("site.c"));  // budget spent: disarmed
  EXPECT_FALSE(Failpoints::instance().armed());
  EXPECT_EQ(Failpoints::instance().hits("site.c"), 2u);
}

TEST_F(FailpointTest, ConfigureParsesMultipleClausesAndRejectsGarbage) {
  ASSERT_TRUE(
      Failpoints::instance().configure("a=error;b=delay:1;c=throw*3"));
  EXPECT_TRUE(failpoint("a"));
  EXPECT_FALSE(failpoint("b"));  // delay returns false after sleeping
  EXPECT_THROW(failpoint("c"), FailpointError);

  EXPECT_FALSE(Failpoints::instance().configure("no-equals"));
  EXPECT_FALSE(Failpoints::instance().configure("x=badkind"));
  EXPECT_FALSE(Failpoints::instance().configure("x=delay:notanumber"));
  EXPECT_FALSE(Failpoints::instance().configure("x=error*0"));
}

TEST_F(FailpointTest, BlockParksUntilReleased) {
  ASSERT_TRUE(Failpoints::instance().configure("site.block=block"));
  std::atomic<bool> passed{false};
  std::thread t([&] {
    failpoint("site.block");
    passed.store(true);
  });
  // The worker must arrive at the failpoint and park there.
  while (Failpoints::instance().hits("site.block") == 0)
    std::this_thread::yield();
  EXPECT_FALSE(passed.load());
  Failpoints::instance().unset("site.block");
  t.join();
  EXPECT_TRUE(passed.load());
}

}  // namespace
