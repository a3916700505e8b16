// kbstore throughput and recovery bench: upsert and append rates into the
// WAL-backed store under each flush policy, concurrent lookup rate against
// a populated store, compaction cost, and recovery time for a WAL-heavy
// vs. a compacted store. Doubles as a correctness gate: a torn-tail
// injection must recover exactly the acknowledged prefix, and the run
// fails (exit 1) when any gate is violated.
//
// It also gates recovery's footprint. A fresh process (this binary, run
// as `kb_store --recover-child <dir>`) opens the WAL-heavy store and
// reports how far its peak RSS rose during Store::open. Recovery streams
// the WAL in kbstore::kLogChunk pieces, so a full run fails when that
// growth exceeds one chunk plus kFootprintMargin; a smoke run's 2,000
// frames fit the margin either way, so there it is only reported.
//
//   kb_store [--smoke] [--json <path>]
//
//   ILC_KBSTORE_RECORDS   records per pass        (default 20000)
//   ILC_KBSTORE_READERS   lookup threads          (default 4)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kbstore/store.hpp"
#include "support/table.hpp"

using namespace ilc;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

kb::ExperimentRecord record(std::size_t i, const char* kind) {
  kb::ExperimentRecord r;
  r.program = "prog-" + std::to_string(i % 97);
  r.machine = "amd-like";
  r.kind = kind;
  r.config = "constprop,dce,licm,peephole";
  r.cycles = 10000 + i;
  r.code_size = 128;
  r.instructions = 5000 + i;
  r.static_features = {1.0, 2.0, 3.0, 4.0};
  r.dynamic_features = {0.5, 0.25};
  return r;
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

/// One timed pass: `n` appends (or upserts) under the given flush policy.
double write_pass(const std::string& dir, std::size_t n,
                  kbstore::Options::Flush flush, bool upserts) {
  fs::remove_all(dir);
  kbstore::Options opts;
  opts.flush = flush;
  opts.background_compaction = false;
  auto store = kbstore::Store::open(dir, opts);
  if (!store) {
    std::fprintf(stderr, "cannot open store at %s\n", dir.c_str());
    std::exit(1);
  }
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (upserts)
      store->upsert(record(i, "flags"));
    else
      store->append(record(i, "sequence"));
  }
  store->sync();
  return static_cast<double>(n) / secs_since(t0);
}

/// Room above one read chunk that the recovery footprint gate allows: the
/// index of 97 keys, the records being decoded, allocator slack.
constexpr std::uint64_t kFootprintMargin = 4u << 20;

/// A `VmRSS:`-style field of /proc/self/status, in bytes; -1 if absent.
long long status_bytes(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind(field, 0) == 0)
      return std::atoll(line.c_str() + std::strlen(field)) * 1024;
  return -1;
}

/// `--recover-child <dir>`: open the store and print how far the peak RSS
/// rose above the RSS just before the open, in bytes.
int recover_child(const std::string& dir) {
  const long long before = status_bytes("VmRSS:");
  auto store = kbstore::Store::open(dir);
  const long long peak = status_bytes("VmHWM:");
  if (!store || before < 0 || peak < 0) return 1;
  std::printf("%lld\n", peak - before);
  return 0;
}

/// Run recover_child on `dir` in a fresh process: its heap holds nothing
/// of the passes before. The growth it reports, or -1 when it could not.
long long recover_rss_growth(const std::string& dir) {
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return -1;
  const std::string cmd =
      "'" + self.string() + "' --recover-child '" + dir + "'";
  std::FILE* child = popen(cmd.c_str(), "r");
  if (!child) return -1;
  long long growth = -1;
  if (std::fscanf(child, "%lld", &growth) != 1) growth = -1;
  return pclose(child) == 0 ? growth : -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--recover-child") == 0)
    return recover_child(argv[2]);
  const bench::Args args = bench::parse_args(argc, argv);
  const std::size_t n =
      args.smoke ? 2000 : bench::env_unsigned("ILC_KBSTORE_RECORDS", 20000);
  const std::size_t readers = bench::env_unsigned("ILC_KBSTORE_READERS", 4);
  const std::string dir = "kb_store_bench.kbd";
  bool ok = true;

  std::printf("kbstore bench: %zu records per pass, %zu reader threads\n\n",
              n, readers);
  support::Table table({"pass", "ops/s"});

  // Write throughput under each flush policy.
  const double append_batched =
      write_pass(dir, n, kbstore::Options::Flush::Batched, false);
  const double append_every =
      write_pass(dir, n, kbstore::Options::Flush::EveryAppend, false);
  const double upsert_batched =
      write_pass(dir, n, kbstore::Options::Flush::Batched, true);
  table.add_row({"append (group commit)", fmt(append_batched)});
  table.add_row({"append (flush each)", fmt(append_every)});
  table.add_row({"upsert (group commit)", fmt(upsert_batched)});

  // Concurrent lookups against the upsert-populated store (97 live keys).
  double lookup_rate = 0.0;
  {
    auto store = kbstore::Store::open(dir);
    const std::size_t per_thread = n * 4;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < readers; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < per_thread; ++i) {
          const auto hit = store->find(
              "prog-" + std::to_string((i + t) % 97), "amd-like", "flags");
          if (!hit) std::abort();  // every key must be live
        }
      });
    for (auto& t : threads) t.join();
    lookup_rate =
        static_cast<double>(per_thread * readers) / secs_since(t0);
    table.add_row({"lookup x" + std::to_string(readers), fmt(lookup_rate)});
  }

  // Recovery footprint: the WAL-heavy store reopened in a fresh process.
  const long long growth = recover_rss_growth(dir);
  const std::uint64_t growth_bound = kbstore::kLogChunk + kFootprintMargin;
  const bool footprint_ok =
      growth >= 0 && static_cast<std::uint64_t>(growth) <= growth_bound;
  if (!args.smoke) ok = ok && footprint_ok;

  // Recovery: WAL-heavy reopen, then compaction, then snapshot reopen.
  double recover_wal_s = 0.0, compact_s = 0.0, recover_snap_s = 0.0;
  std::size_t live = 0;
  {
    Clock::time_point t0 = Clock::now();
    kbstore::RecoveryInfo info;
    auto store = kbstore::Store::open(dir, {}, &info);
    recover_wal_s = secs_since(t0);
    live = store->size();
    ok = ok && info.wal_records > 0 && !info.torn_tail;

    t0 = Clock::now();
    ok = ok && store->compact();
    compact_s = secs_since(t0);
  }
  {
    const Clock::time_point t0 = Clock::now();
    kbstore::RecoveryInfo info;
    auto store = kbstore::Store::open(dir, {}, &info);
    recover_snap_s = secs_since(t0);
    ok = ok && store->size() == live && info.snapshot_records == live &&
         info.wal_records == 0;
  }
  table.add_row({"recover (wal) rec/s",
                 fmt(static_cast<double>(n) / recover_wal_s)});
  table.add_row({"compact rec/s", fmt(static_cast<double>(live) / compact_s)});

  // Correctness gate: torn-tail injection. Append garbage that looks like
  // the start of a frame; recovery must keep all acknowledged records.
  bool torn_ok = false;
  {
    {
      std::ofstream wal(dir + "/wal.ilc", std::ios::binary | std::ios::app);
      const char torn[] = {0x50, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03};
      wal.write(torn, sizeof torn);
    }
    kbstore::RecoveryInfo info;
    auto store = kbstore::Store::open(dir, {}, &info);
    torn_ok = store && info.torn_tail && store->size() == live;
    ok = ok && torn_ok;
  }
  table.print(std::cout);

  std::printf("\nrecovered %zu live records; torn-tail injection %s\n", live,
              torn_ok ? "recovered cleanly" : "FAILED");
  std::printf("recovery peak RSS growth: %.2f MB (bound %.2f MB, %s)\n",
              static_cast<double>(growth) / 1e6,
              static_cast<double>(growth_bound) / 1e6,
              !footprint_ok ? "FAILED"
                            : args.smoke ? "reported only" : "ok");
  std::printf("all gates: %s\n", ok ? "PASS" : "FAIL");

  if (!args.json_path.empty()) {
    bench::Json json;
    json.string("bench", "kb_store")
        .boolean("smoke", args.smoke)
        .integer("records", n)
        .number("append_batched_per_s", append_batched)
        .number("append_every_per_s", append_every)
        .number("upsert_batched_per_s", upsert_batched)
        .number("lookup_per_s", lookup_rate)
        .number("recover_wal_s", recover_wal_s)
        .number("compact_s", compact_s)
        .number("recover_snapshot_s", recover_snap_s)
        .number("recover_rss_growth_mb", static_cast<double>(growth) / 1e6)
        .boolean("torn_tail_recovered", torn_ok)
        .boolean("pass", ok);
    if (!bench::write_json(args.json_path, json)) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
  }

  fs::remove_all(dir);
  return ok ? 0 : 1;
}
