// kbstore tests: codec and framing round trips, the keyed index against a
// linear-scan reference (in memory, on disk, and reopened), the in-memory
// form's promise to touch no file and no metric, crash recovery under
// fault injection (torn WAL tails, bit-flipped payloads, corrupt
// snapshots, stale WALs, and each of these across the chunks recovery
// reads a log in), group-commit acknowledgement semantics,
// compaction, CSV import/export, and concurrent writers/readers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "kbstore/log_format.hpp"
#include "kbstore/record_codec.hpp"
#include "kbstore/store.hpp"
#include "obs/metrics.hpp"
#include "support/crc32.hpp"
#include "support/failpoint.hpp"

namespace {

namespace fs = std::filesystem;

using namespace ilc;
using kbstore::LogRecord;
using kbstore::Op;
using kbstore::Store;

kb::ExperimentRecord sample(const std::string& program, std::uint64_t cycles,
                            const std::string& kind = "sequence") {
  kb::ExperimentRecord r;
  r.program = program;
  r.machine = "amd-like";
  r.kind = kind;
  r.config = "constprop,dce,licm";
  r.cycles = cycles;
  r.code_size = 100;
  r.instructions = cycles / 2;
  r.counters[sim::L1_TCM] = 7;
  r.static_features = {1.5, -2.25, 0.0};
  r.dynamic_features = {3.0, 0.125};
  return r;
}

/// A store directory under the test working dir, wiped on entry and exit.
struct TempStoreDir {
  explicit TempStoreDir(const char* name) : path(name) { fs::remove_all(path); }
  ~TempStoreDir() { fs::remove_all(path); }
  std::string wal() const { return path + "/wal.ilc"; }
  std::string snapshot() const { return path + "/snapshot.ilc"; }
  std::string path;
};

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Byte offsets of each frame (start of its length prefix) in a log image.
std::vector<std::size_t> frame_offsets(const std::string& bytes) {
  std::vector<std::size_t> out;
  std::size_t pos = kbstore::kHeaderSize;
  while (pos + kbstore::kFrameOverhead <= bytes.size()) {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + pos);
    const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
    out.push_back(pos);
    pos += kbstore::kFrameOverhead + len;
  }
  return out;
}

kbstore::Options every_append() {
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::EveryAppend;
  opts.background_compaction = false;
  return opts;
}

// --- codec ---------------------------------------------------------------

TEST(KbStoreCodec, RoundTripsEveryField) {
  LogRecord in;
  in.op = Op::Upsert;
  in.rec = sample("prog,with \"csv\" hazards", 12345, "flags");
  const std::string payload = kbstore::encode_record(in);
  const auto out = kbstore::decode_record(payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->op, Op::Upsert);
  EXPECT_EQ(out->rec.program, in.rec.program);
  EXPECT_EQ(out->rec.machine, in.rec.machine);
  EXPECT_EQ(out->rec.kind, in.rec.kind);
  EXPECT_EQ(out->rec.config, in.rec.config);
  EXPECT_EQ(out->rec.cycles, in.rec.cycles);
  EXPECT_EQ(out->rec.code_size, in.rec.code_size);
  EXPECT_EQ(out->rec.instructions, in.rec.instructions);
  EXPECT_EQ(out->rec.counters, in.rec.counters);
  EXPECT_EQ(out->rec.static_features, in.rec.static_features);
  EXPECT_EQ(out->rec.dynamic_features, in.rec.dynamic_features);
}

TEST(KbStoreCodec, RejectsTruncationAtEveryLength) {
  LogRecord in;
  in.rec = sample("p", 42);
  const std::string payload = kbstore::encode_record(in);
  for (std::size_t n = 0; n < payload.size(); ++n)
    EXPECT_FALSE(kbstore::decode_record(payload.substr(0, n)).has_value())
        << "prefix of " << n << " bytes decoded";
  EXPECT_FALSE(kbstore::decode_record(payload + 'x').has_value());
  EXPECT_TRUE(kbstore::decode_record(payload).has_value());
}

TEST(KbStoreLog, ScanStopsAtFirstBadFrameAndCountsGoodBytes) {
  std::string image = kbstore::log_header(kbstore::kWalType, 7);
  LogRecord a, b;
  a.rec = sample("a", 1);
  b.rec = sample("b", 2);
  kbstore::append_frame(image, kbstore::encode_record(a));
  const std::size_t after_a = image.size();
  kbstore::append_frame(image, kbstore::encode_record(b));

  std::vector<LogRecord> records;
  const auto collect = [&](const kbstore::FrameBounds&, LogRecord&& lr) {
    records.push_back(std::move(lr));
  };
  EXPECT_EQ(kbstore::read_header(image, kbstore::kWalType), 7u);
  const auto clean =
      kbstore::walk_frames(image, kbstore::kHeaderSize, collect);
  EXPECT_TRUE(clean.clean());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(clean.count, 2u);
  EXPECT_EQ(records[1].rec.program, "b");

  // Flip one payload byte of the second frame: the walk keeps frame one
  // only.
  std::string flipped = image;
  flipped[after_a + kbstore::kFrameOverhead + 3] ^= 0x01;
  records.clear();
  EXPECT_EQ(kbstore::read_header(flipped, kbstore::kWalType), 7u);
  const auto scan =
      kbstore::walk_frames(flipped, kbstore::kHeaderSize, collect);
  EXPECT_FALSE(scan.clean());
  EXPECT_EQ(scan.good_bytes, after_a);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rec.program, "a");

  // Wrong file type: header rejected.
  EXPECT_FALSE(kbstore::read_header(image, kbstore::kSnapshotType));
}

// --- basic store semantics ----------------------------------------------

TEST(KbStore, AppendAccumulatesAndFindReturnsFirst) {
  TempStoreDir dir("kbstore_test_basic");
  auto store = Store::open(dir.path, every_append());
  ASSERT_NE(store, nullptr);
  store->append(sample("a", 100));
  store->append(sample("a", 90));
  store->append(sample("b", 50));
  EXPECT_EQ(store->size(), 3u);

  const auto hit = store->find("a", "amd-like", "sequence");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cycles, 100u);  // first record under the key
  EXPECT_FALSE(store->find("c", "amd-like", "sequence").has_value());

  const auto recs = store->records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].program, "a");
  EXPECT_EQ(recs[1].cycles, 90u);
  EXPECT_EQ(recs[2].program, "b");
}

TEST(KbStore, UpsertReplacesFirst) {
  TempStoreDir dir("kbstore_test_upsert");
  auto store = Store::open(dir.path, every_append());
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(store->upsert(sample("a", 100)));  // fresh key: append
  store->append(sample("a", 90));
  EXPECT_TRUE(store->upsert(sample("a", 70)));  // replaces the 100 record
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->find("a", "amd-like", "sequence")->cycles, 70u);
}

// Property test: the sharded index must agree with a reference linear
// scan after any interleaving of append() and upsert(): find() returns
// the first record under a key, upsert() replaces it in place, and
// records() keeps insertion order. Checked on the in-memory form, on a
// directory store, and on that directory store reopened from its WAL.
TEST(KbStore, IndexMatchesLinearScanReference) {
  std::mt19937_64 rng(20080602);
  std::vector<kb::ExperimentRecord> reference;
  const auto ref_find =
      [&](const kb::ExperimentRecord& key) -> kb::ExperimentRecord* {
    for (auto& r : reference)
      if (r.program == key.program && r.machine == key.machine &&
          r.kind == key.kind)
        return &r;
    return nullptr;
  };

  TempStoreDir dir("kbstore_test_index_reference");
  const auto memory = Store::in_memory();
  auto disk = Store::open(dir.path, every_append());
  ASSERT_NE(disk, nullptr);
  for (int step = 0; step < 300; ++step) {
    kb::ExperimentRecord r =
        sample("p" + std::to_string(rng() % 6), rng() % 10000,
               rng() % 2 ? "sequence" : "flags");
    r.machine = rng() % 2 ? "amd-like" : "c6713-like";
    if (rng() % 2) {
      memory->append(r);
      disk->append(r);
      reference.push_back(r);
    } else {
      memory->upsert(r);
      disk->upsert(r);
      if (kb::ExperimentRecord* hit = ref_find(r))
        *hit = r;
      else
        reference.push_back(r);
    }
  }

  const auto check = [&](const Store& store, const char* form) {
    SCOPED_TRACE(form);
    ASSERT_EQ(store.size(), reference.size());
    for (const auto& probe : reference) {
      const auto got = store.find(probe.program, probe.machine, probe.kind);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->cycles, ref_find(probe)->cycles);
    }
    const auto recs = store.records();
    ASSERT_EQ(recs.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(recs[i].cycles, reference[i].cycles) << i;
  };
  check(*memory, "in memory");
  check(*disk, "directory");
  disk.reset();
  disk = Store::open(dir.path, every_append());
  ASSERT_NE(disk, nullptr);
  check(*disk, "reopened directory");
}

// The in-memory form owns no directory. With an empty directory name a
// snapshot or WAL path would land at the filesystem root, so nothing it
// does may create a file, and nothing may move a kbstore.* metric.
TEST(KbStore, InMemoryStoreWritesNoFileAndMovesNoMetric) {
  obs::Registry& registry = obs::Registry::instance();
  // Sentinels no store publishes, so a position update cannot hide.
  registry.gauge("kbstore.wal_generation").set(-1);
  registry.gauge("kbstore.durable_seq").set(-1);
  const auto kbstore_metrics = [&registry] {
    std::vector<std::pair<std::string, std::int64_t>> out;
    const obs::RegistrySnapshot snap = registry.snapshot();
    const auto keep = [&out](const std::string& name, std::int64_t v) {
      if (name.rfind("kbstore.", 0) == 0) out.emplace_back(name, v);
    };
    for (const auto& c : snap.counters)
      keep(c.name, static_cast<std::int64_t>(c.value));
    for (const auto& g : snap.gauges) keep(g.name, g.value);
    for (const auto& h : snap.histograms)
      keep(h.name, static_cast<std::int64_t>(h.count));
    return out;
  };
  const auto before = kbstore_metrics();

  TempStoreDir cwd("kbstore_test_in_memory_cwd");
  fs::create_directories(cwd.path);
  const fs::path home = fs::current_path();
  fs::current_path(cwd.path);
  {
    auto store = Store::in_memory();
    EXPECT_FALSE(store->is_follower());
    store->append(sample("a", 100));
    EXPECT_FALSE(store->upsert(sample("b", 50)));
    EXPECT_TRUE(store->upsert(sample("b", 40)));
    EXPECT_EQ(store->find("b", "amd-like", "sequence")->cycles, 40u);
    EXPECT_EQ(store->size(), 2u);
    EXPECT_TRUE(store->sync());
    EXPECT_TRUE(store->compact());
    const kbstore::StoreStats stats = store->stats();
    EXPECT_EQ(stats.flushes, 0u);
    EXPECT_EQ(stats.compactions, 0u);
    EXPECT_EQ(stats.wal_bytes, 0u);
  }  // the destructor flushes nothing and closes nothing
  fs::current_path(home);

  EXPECT_TRUE(fs::is_empty(cwd.path));
  for (const char* name : {"/snapshot.tmp", "/snapshot.ilc", "/wal.ilc"})
    EXPECT_FALSE(fs::exists(name)) << name;
  EXPECT_EQ(kbstore_metrics(), before);
}

TEST(KbStore, CleanReopenRecoversEverythingInInsertionOrder) {
  TempStoreDir dir("kbstore_test_reopen");
  {
    auto store = Store::open(dir.path, every_append());
    ASSERT_NE(store, nullptr);
    for (int i = 0; i < 20; ++i)
      store->append(sample("p" + std::to_string(i % 4), 1000 + i));
  }
  kbstore::RecoveryInfo info;
  auto store = Store::open(dir.path, every_append(), &info);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(info.wal_records, 20u);
  EXPECT_FALSE(info.torn_tail);
  const auto recs = store->records();
  ASSERT_EQ(recs.size(), 20u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].cycles,
              static_cast<std::uint64_t>(1000 + i));
}

// --- crash recovery under fault injection -------------------------------

// Truncate the WAL inside every frame in turn: recovery must keep exactly
// the records before the cut and stay usable afterwards.
TEST(KbStore, TruncatedWalTailRecoversPrefixAtEveryCut) {
  TempStoreDir dir("kbstore_test_trunc");
  constexpr std::size_t kRecords = 5;
  {
    auto store = Store::open(dir.path, every_append());
    ASSERT_NE(store, nullptr);
    for (std::size_t i = 0; i < kRecords; ++i)
      store->append(sample("p", 100 + i));
  }
  const std::string wal = read_file(dir.wal());
  const std::vector<std::size_t> offsets = frame_offsets(wal);
  ASSERT_EQ(offsets.size(), kRecords);

  for (std::size_t k = 0; k < kRecords; ++k) {
    // Cut mid-frame k: 3 bytes past its length prefix.
    write_file(dir.wal(), wal.substr(0, offsets[k] + 3));
    kbstore::RecoveryInfo info;
    auto store = Store::open(dir.path, every_append(), &info);
    ASSERT_NE(store, nullptr) << "cut in frame " << k;
    EXPECT_EQ(store->size(), k);
    EXPECT_EQ(info.wal_records, k);
    EXPECT_TRUE(info.torn_tail);
    EXPECT_EQ(info.torn_bytes, 3u);

    // The torn tail was truncated away: appending and reopening works.
    store->append(sample("q", 999));
    store.reset();
    auto again = Store::open(dir.path, every_append(), &info);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->size(), k + 1);
    EXPECT_FALSE(info.torn_tail);
    EXPECT_EQ(again->records().back().cycles, 999u);
  }
}

TEST(KbStore, BitFlippedPayloadDropsFromThatFrameOn) {
  TempStoreDir dir("kbstore_test_flip");
  {
    auto store = Store::open(dir.path, every_append());
    ASSERT_NE(store, nullptr);
    for (std::size_t i = 0; i < 4; ++i) store->append(sample("p", 100 + i));
  }
  std::string wal = read_file(dir.wal());
  const std::vector<std::size_t> offsets = frame_offsets(wal);
  ASSERT_EQ(offsets.size(), 4u);

  // Flip a payload byte in frame 2: frames 0 and 1 survive, 2 and 3 are
  // discarded (the log has no way to resynchronize past a bad frame).
  wal[offsets[2] + kbstore::kFrameOverhead + 5] ^= 0x40;
  write_file(dir.wal(), wal);

  kbstore::RecoveryInfo info;
  auto store = Store::open(dir.path, every_append(), &info);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_TRUE(info.torn_tail);
  const auto recs = store->records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].cycles, 100u);
  EXPECT_EQ(recs[1].cycles, 101u);
}

TEST(KbStore, CorruptSnapshotRefusesToOpen) {
  TempStoreDir dir("kbstore_test_badsnap");
  {
    auto store = Store::open(dir.path, every_append());
    ASSERT_NE(store, nullptr);
    for (std::size_t i = 0; i < 8; ++i) store->append(sample("p", 100 + i));
    ASSERT_TRUE(store->compact());
  }
  // Snapshots are written atomically, so damage is real corruption — the
  // store must refuse rather than silently serve a partial baseline.
  std::string snap = read_file(dir.snapshot());
  ASSERT_GT(snap.size(), kbstore::kHeaderSize + 10);
  snap[kbstore::kHeaderSize + 10] ^= 0x01;
  write_file(dir.snapshot(), snap);
  EXPECT_EQ(Store::open(dir.path, every_append()), nullptr);
}

// A crash between snapshot publish and WAL truncation leaves a WAL whose
// generation the snapshot already covers; replaying it would double-apply
// every append. Recovery must discard it as stale.
TEST(KbStore, StaleWalAfterCompactionCrashIsDiscarded) {
  TempStoreDir dir("kbstore_test_stale");
  {
    auto store = Store::open(dir.path, every_append());
    ASSERT_NE(store, nullptr);
    for (std::size_t i = 0; i < 6; ++i) store->append(sample("p", 100 + i));
  }
  const std::string old_wal = read_file(dir.wal());  // generation 1
  {
    auto store = Store::open(dir.path, every_append());
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->compact());  // snapshot gen 1, fresh WAL gen 2
  }
  write_file(dir.wal(), old_wal);  // the crash: truncation never happened

  kbstore::RecoveryInfo info;
  auto store = Store::open(dir.path, every_append(), &info);
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(info.stale_wal);
  EXPECT_EQ(info.snapshot_records, 6u);
  EXPECT_EQ(info.wal_records, 0u);
  EXPECT_EQ(store->size(), 6u);  // no double-apply
}

// --- recovery across read chunks -----------------------------------------
// Recovery reads a log kLogChunk bytes at a time. These stores span
// several chunks: configs of uneven lengths put frame boundaries at odd
// offsets, so frames straddle the chunk boundaries, and one record is
// larger than a chunk.

constexpr std::size_t kChunkedRecords = 200;
constexpr std::size_t kChunkedBig = 150;  // the record larger than a chunk

/// Every field of each record, as bytes, for whole-record comparisons.
std::vector<std::string> encoded(
    const std::vector<kb::ExperimentRecord>& recs) {
  std::vector<std::string> out;
  for (const kb::ExperimentRecord& r : recs)
    out.push_back(kbstore::encode_record({Op::Append, r}));
  return out;
}

/// Writes the multi-chunk store and returns its WAL position.
kbstore::WalPosition write_chunked_store(const std::string& dir) {
  auto store = Store::open(dir, every_append());
  EXPECT_NE(store, nullptr);
  for (std::size_t i = 0; i < kChunkedRecords; ++i) {
    kb::ExperimentRecord r = sample("p" + std::to_string(i % 7), 100 + i);
    const std::size_t len =
        i == kChunkedBig ? kbstore::kLogChunk + 4099 : 1000 + 7 * i;
    r.config.assign(len, static_cast<char>('a' + i % 26));
    store->append(std::move(r));
  }
  return store->wal_position();
}

/// The reference a reopen must match: one walk over the whole WAL image.
struct WholeImage {
  std::string bytes;
  std::vector<kb::ExperimentRecord> records;
  std::vector<kbstore::FrameBounds> frames;
  kbstore::WalkedFrames walked;
};

WholeImage walk_whole(const std::string& wal_path) {
  WholeImage img;
  img.bytes = read_file(wal_path);
  img.walked = kbstore::walk_frames(
      img.bytes, kbstore::kHeaderSize,
      [&](const kbstore::FrameBounds& fb, LogRecord&& lr) {
        img.frames.push_back(fb);
        img.records.push_back(std::move(lr.rec));
      });
  return img;
}

TEST(KbStoreRecovery, ReopenAcrossReadChunksMatchesAWalkOfTheWholeImage) {
  TempStoreDir dir("kbstore_test_chunks");
  const kbstore::WalPosition written = write_chunked_store(dir.path);
  const WholeImage img = walk_whole(dir.wal());
  ASSERT_TRUE(img.walked.clean());
  ASSERT_EQ(img.records.size(), kChunkedRecords);
  ASSERT_GT(img.bytes.size(), 4 * kbstore::kLogChunk);
  EXPECT_GT(img.frames[kChunkedBig].size(), kbstore::kLogChunk);

  kbstore::RecoveryInfo info;
  auto store = Store::open(dir.path, every_append(), &info);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(info.snapshot_records, 0u);
  EXPECT_EQ(info.wal_records, img.walked.count);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_EQ(info.torn_bytes, 0u);
  EXPECT_FALSE(info.stale_wal);
  EXPECT_EQ(encoded(store->records()), encoded(img.records));

  const kbstore::WalPosition pos = store->wal_position();
  EXPECT_EQ(pos.generation, written.generation);
  EXPECT_EQ(pos.seq, img.walked.count);
  EXPECT_EQ(pos.chain_crc, support::crc32(std::string_view(img.bytes).substr(
                               kbstore::kHeaderSize)));
  EXPECT_EQ(pos.chain_crc, written.chain_crc);
  EXPECT_EQ(store->stats().wal_bytes, img.bytes.size());
}

// A cut inside, or a bit flip in, a frame that a read splits: the frame
// across the first chunk boundary, and the frame larger than a chunk.
// Recovery keeps exactly the frames before it and truncates there.
TEST(KbStoreRecovery, DamageInAFrameAReadSplitsKeepsThePrefixBeforeIt) {
  TempStoreDir dir("kbstore_test_chunk_damage");
  write_chunked_store(dir.path);
  const WholeImage img = walk_whole(dir.wal());
  ASSERT_TRUE(img.walked.clean());

  // The first read ends kLogChunk bytes past the header.
  const std::uint64_t boundary = kbstore::kHeaderSize + kbstore::kLogChunk;
  std::size_t straddler = 0;
  while (img.frames[straddler].end() <= boundary) ++straddler;
  ASSERT_LT(img.frames[straddler].offset, boundary);
  ASSERT_LT(straddler, kChunkedBig);

  for (const std::size_t k : {straddler, kChunkedBig}) {
    const kbstore::FrameBounds fb = img.frames[k];
    const std::uint64_t inside = k == straddler ? boundary + 7
                                                : fb.offset + fb.size() / 2;
    ASSERT_LT(inside, fb.end());
    std::string cut = img.bytes.substr(0, inside);
    std::string flipped = img.bytes;
    flipped[inside] ^= 0x10;
    for (const std::string* damaged : {&cut, &flipped}) {
      SCOPED_TRACE("frame " + std::to_string(k) +
                   (damaged == &cut ? ", cut" : ", bit flip"));
      write_file(dir.wal(), *damaged);
      kbstore::RecoveryInfo info;
      auto store = Store::open(dir.path, every_append(), &info);
      ASSERT_NE(store, nullptr);
      EXPECT_EQ(info.wal_records, k);
      EXPECT_TRUE(info.torn_tail);
      EXPECT_EQ(info.torn_bytes, damaged->size() - fb.offset);
      EXPECT_EQ(fs::file_size(dir.wal()), fb.offset);
      const std::vector<kb::ExperimentRecord> prefix(
          img.records.begin(),
          img.records.begin() + static_cast<std::ptrdiff_t>(k));
      EXPECT_EQ(encoded(store->records()), encoded(prefix));
      const kbstore::WalPosition pos = store->wal_position();
      EXPECT_EQ(pos.seq, k);
      EXPECT_EQ(pos.chain_crc,
                support::crc32(std::string_view(img.bytes).substr(
                    kbstore::kHeaderSize, fb.offset - kbstore::kHeaderSize)));
    }
  }
}

TEST(KbStoreRecovery, StaleWalLargerThanAChunkIsDiscarded) {
  TempStoreDir dir("kbstore_test_chunk_stale");
  write_chunked_store(dir.path);
  const WholeImage img = walk_whole(dir.wal());  // generation 1
  ASSERT_GT(img.bytes.size(), kbstore::kLogChunk);
  {
    auto store = Store::open(dir.path, every_append());
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->compact());  // snapshot gen 1, fresh WAL gen 2
  }
  write_file(dir.wal(), img.bytes);  // the crash: truncation never happened

  kbstore::RecoveryInfo info;
  auto store = Store::open(dir.path, every_append(), &info);
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(info.stale_wal);
  EXPECT_EQ(info.snapshot_records, kChunkedRecords);
  EXPECT_EQ(info.wal_records, 0u);
  EXPECT_FALSE(info.torn_tail);
  // No double-apply.
  EXPECT_EQ(encoded(store->records()), encoded(img.records));
  const kbstore::WalPosition pos = store->wal_position();
  EXPECT_EQ(pos.generation, 2u);
  EXPECT_EQ(pos.seq, 0u);
  EXPECT_EQ(fs::file_size(dir.wal()), kbstore::kHeaderSize);
}

// --- acknowledgement semantics ------------------------------------------

// Only flushed writes are acknowledged. Under Manual flush a crash before
// sync() loses the tail; after sync() it must survive. The "crash" copies
// the live files into a second directory and recovers there.
TEST(KbStore, SyncIsTheDurabilityBarrier) {
  TempStoreDir dir("kbstore_test_ack");
  TempStoreDir crash("kbstore_test_ack_crash");
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::Manual;
  opts.background_compaction = false;

  auto store = Store::open(dir.path, opts);
  ASSERT_NE(store, nullptr);
  store->append(sample("a", 100));

  fs::create_directories(crash.path);
  fs::copy_file(dir.wal(), crash.wal(), fs::copy_options::overwrite_existing);
  {
    auto replica = Store::open(crash.path, every_append());
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->size(), 0u);  // unsynced: not yet acknowledged
  }

  ASSERT_TRUE(store->sync());
  fs::copy_file(dir.wal(), crash.wal(), fs::copy_options::overwrite_existing);
  {
    auto replica = Store::open(crash.path, every_append());
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->size(), 1u);  // synced: must survive the crash
  }
}

TEST(KbStore, BatchedFlushCommitsAtBatchBoundary) {
  TempStoreDir dir("kbstore_test_batch");
  TempStoreDir crash("kbstore_test_batch_crash");
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::Batched;
  opts.batch_appends = 4;
  opts.background_compaction = false;

  auto store = Store::open(dir.path, opts);
  ASSERT_NE(store, nullptr);
  for (std::size_t i = 0; i < 6; ++i) store->append(sample("p", 100 + i));

  fs::create_directories(crash.path);
  fs::copy_file(dir.wal(), crash.wal(), fs::copy_options::overwrite_existing);
  auto replica = Store::open(crash.path, every_append());
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->size(), 4u);  // one full batch flushed, tail pending
}

// Injected WAL faults behave like real I/O errors: a failing flush leaves
// the pending batch buffered (sync() reports it honestly), a failing
// append surfaces as an exception, and clearing the fault lets the same
// bytes commit — no data is lost to a transient fault.
TEST(KbStore, InjectedWalFaultsFailCleanlyAndClear) {
  TempStoreDir dir("kbstore_test_failpoint");
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::Manual;
  opts.background_compaction = false;

  auto store = Store::open(dir.path, opts);
  ASSERT_NE(store, nullptr);
  store->append(sample("a", 100));

  auto& fp = support::Failpoints::instance();
  ASSERT_TRUE(fp.configure("kbstore.wal_flush=error"));
  EXPECT_FALSE(store->sync());
  EXPECT_EQ(store->size(), 1u);  // index still serves the un-flushed write

  ASSERT_TRUE(fp.configure("kbstore.wal_append=throw"));
  EXPECT_THROW(store->append(sample("b", 200)), support::FailpointError);
  EXPECT_EQ(store->size(), 1u);  // failed append never reached the index

  fp.unset_all();
  EXPECT_TRUE(store->sync());  // the buffered batch commits after all
  store->append(sample("b", 200));
  ASSERT_TRUE(store->sync());
  EXPECT_EQ(store->size(), 2u);
}

// --- compaction ----------------------------------------------------------

TEST(KbStore, CompactionPreservesLiveSetAndOrderAcrossReopen) {
  TempStoreDir dir("kbstore_test_compact");
  kbstore::Options opts = every_append();
  {
    auto store = Store::open(dir.path, opts);
    ASSERT_NE(store, nullptr);
    for (std::size_t i = 0; i < 10; ++i)
      store->append(sample("p" + std::to_string(i % 3), 100 + i));
    for (std::size_t i = 0; i < 50; ++i)
      store->upsert(sample("hot", 1000 - i, "flags"));
    EXPECT_GT(store->stats().dead, 0u);

    ASSERT_TRUE(store->compact());
    const auto stats = store->stats();
    EXPECT_EQ(stats.dead, 0u);
    EXPECT_EQ(stats.live, 11u);
    EXPECT_EQ(stats.compactions, 1u);
  }
  kbstore::RecoveryInfo info;
  auto store = Store::open(dir.path, opts, &info);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(info.snapshot_records, 11u);
  EXPECT_EQ(info.wal_records, 0u);
  const auto recs = store->records();
  ASSERT_EQ(recs.size(), 11u);
  for (std::size_t i = 0; i < 10; ++i)  // original insertion order intact
    EXPECT_EQ(recs[i].cycles, 100 + i);
  EXPECT_EQ(recs[10].cycles, 951u);  // the surviving upsert
}

TEST(KbStore, BackgroundCompactionFiresOnDeadRatio) {
  TempStoreDir dir("kbstore_test_bgcompact");
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::EveryAppend;
  opts.compact_min_dead = 8;
  opts.compact_dead_ratio = 0.5;
  opts.background_compaction = true;

  auto store = Store::open(dir.path, opts);
  ASSERT_NE(store, nullptr);
  store->append(sample("base", 1));
  for (std::size_t i = 0; i < 200; ++i)
    store->upsert(sample("hot", 1000 + i, "flags"));

  bool compacted = false;
  for (int tries = 0; tries < 200 && !compacted; ++tries) {
    compacted = store->stats().compactions > 0;
    if (!compacted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(compacted);
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->find("hot", "amd-like", "flags")->cycles, 1199u);
}

// --- CSV import/export (kb_tool) -----------------------------------------

TEST(KbStore, CsvImportExportRoundTripsExactly) {
  TempStoreDir dir("kbstore_test_csv");
  kb::KnowledgeBase base;
  base.add(sample("prog_one", 1234));
  base.add(sample("prog_one", 999));  // duplicate key must survive
  base.add(sample("prog,two \"quoted\"", 5678, "flags"));

  auto store = Store::open(dir.path, every_append());
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->import_records(base));
  EXPECT_EQ(store->export_kb().serialize(), base.serialize());

  // And the same after crash recovery.
  store.reset();
  store = Store::open(dir.path, every_append());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->export_kb().serialize(), base.serialize());
}

// --- concurrency (run under TSan in CI) ----------------------------------

TEST(KbStore, ConcurrentWritersAndReadersKeepPerKeyOrder) {
  TempStoreDir dir("kbstore_test_concurrent");
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::Batched;
  opts.batch_appends = 16;
  opts.compact_min_dead = 32;
  opts.compact_dead_ratio = 0.25;
  opts.background_compaction = true;  // compaction races with the writers

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 150;
  auto store = Store::open(dir.path, opts);
  ASSERT_NE(store, nullptr);

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string program = "w" + std::to_string(w);
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        store->append(sample(program, i));
        store->upsert(sample(program, i, "flags"));  // churn for compaction
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      (void)store->find("w0", "amd-like", "sequence");
      (void)store->records();
      (void)store->stats();
    }
  });
  for (auto& t : threads) t.join();
  done.store(true);
  reader.join();
  ASSERT_TRUE(store->sync());

  // Reopen and verify: every writer's appends present, in its own order.
  store.reset();
  store = Store::open(dir.path, every_append());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), kWriters * (kPerWriter + 1));
  const auto recs = store->records();
  for (std::size_t w = 0; w < kWriters; ++w) {
    const std::string program = "w" + std::to_string(w);
    std::uint64_t expect = 0;
    for (const auto& rec : recs) {
      if (rec.program != program || rec.kind != "sequence") continue;
      EXPECT_EQ(rec.cycles, expect++);
    }
    EXPECT_EQ(expect, kPerWriter);
    EXPECT_EQ(store->find(program, "amd-like", "flags")->cycles,
              kPerWriter - 1);
  }
}

// --- codec fuzz (randomized, but seeded: failures reproduce) -------------

kb::ExperimentRecord random_record(std::mt19937_64& rng) {
  auto rand_string = [&rng](std::size_t max_len) {
    std::uniform_int_distribution<std::size_t> len(0, max_len);
    // Full byte range: embedded NULs, newlines, commas, 0xFF — the codec
    // is length-prefixed binary and must not care.
    std::uniform_int_distribution<int> byte(0, 255);
    std::string s(len(rng), '\0');
    for (auto& c : s) c = static_cast<char>(byte(rng));
    return s;
  };
  auto rand_doubles = [&rng](std::size_t max_len) {
    std::uniform_int_distribution<std::size_t> len(0, max_len);
    std::uniform_int_distribution<int> pick(0, 4);
    std::uniform_real_distribution<double> uni(-1e18, 1e18);
    std::vector<double> v(len(rng));
    for (auto& d : v) {
      switch (pick(rng)) {
        case 0: d = uni(rng); break;
        case 1: d = std::numeric_limits<double>::infinity(); break;
        case 2: d = -std::numeric_limits<double>::infinity(); break;
        case 3: d = std::numeric_limits<double>::denorm_min(); break;
        default: d = 0.0; break;
      }
    }
    return v;
  };
  std::uniform_int_distribution<std::uint64_t> u64;
  kb::ExperimentRecord r;
  r.program = rand_string(64);
  r.machine = rand_string(16);
  r.kind = rand_string(16);
  r.config = rand_string(128);
  r.cycles = u64(rng);
  r.code_size = u64(rng);
  r.instructions = u64(rng);
  for (unsigned c = 0; c < sim::kNumCounters; ++c)
    r.counters[static_cast<sim::Counter>(c)] = u64(rng);
  r.static_features = rand_doubles(24);
  r.dynamic_features = rand_doubles(24);
  return r;
}

TEST(KbStoreCodecFuzz, RandomRecordsRoundTripExactly) {
  std::mt19937_64 rng(2008);
  std::uniform_int_distribution<int> op(1, 2);  // Op::Append..Op::Upsert
  for (int i = 0; i < 200; ++i) {
    LogRecord in;
    in.op = static_cast<Op>(op(rng));
    in.rec = random_record(rng);
    const std::string payload = kbstore::encode_record(in);
    const auto out = kbstore::decode_record(payload);
    ASSERT_TRUE(out.has_value()) << "iteration " << i;
    EXPECT_EQ(out->op, in.op);
    EXPECT_EQ(out->rec.program, in.rec.program);
    EXPECT_EQ(out->rec.machine, in.rec.machine);
    EXPECT_EQ(out->rec.kind, in.rec.kind);
    EXPECT_EQ(out->rec.config, in.rec.config);
    EXPECT_EQ(out->rec.cycles, in.rec.cycles);
    EXPECT_EQ(out->rec.code_size, in.rec.code_size);
    EXPECT_EQ(out->rec.instructions, in.rec.instructions);
    EXPECT_EQ(out->rec.counters, in.rec.counters);
    EXPECT_EQ(out->rec.static_features, in.rec.static_features);
    EXPECT_EQ(out->rec.dynamic_features, in.rec.dynamic_features);
    // Any other op byte is refused, 3 (a retired tombstone op) included.
    for (const char bad : {'\0', '\3', '\x7f'}) {
      std::string mut = payload;
      mut[0] = bad;
      EXPECT_FALSE(kbstore::decode_record(mut).has_value()) << int(bad);
    }
  }
}

TEST(KbStoreCodecFuzz, NaNFeaturesSurviveByBitPattern) {
  LogRecord in;
  in.rec = sample("nan", 1);
  in.rec.static_features = {std::numeric_limits<double>::quiet_NaN(), 1.0};
  const auto out = kbstore::decode_record(kbstore::encode_record(in));
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->rec.static_features.size(), 2u);
  EXPECT_TRUE(std::isnan(out->rec.static_features[0]));
  EXPECT_EQ(out->rec.static_features[1], 1.0);
}

TEST(KbStoreCodecFuzz, RandomRecordsRejectEveryTruncation) {
  std::mt19937_64 rng(42);
  for (int i = 0; i < 25; ++i) {
    LogRecord in;
    in.rec = random_record(rng);
    const std::string payload = kbstore::encode_record(in);
    for (std::size_t n = 0; n < payload.size(); ++n)
      ASSERT_FALSE(kbstore::decode_record(payload.substr(0, n)).has_value())
          << "iteration " << i << ": prefix of " << n << " bytes decoded";
    ASSERT_FALSE(kbstore::decode_record(payload + 'y').has_value())
        << "iteration " << i << ": trailing garbage accepted";
  }
}

TEST(KbStoreCodecFuzz, EveryBitFlipDecodesSanelyOrNotAtAll) {
  // Deterministic single-bit-flip sweep: the decoder must never crash,
  // hang, or return a record that could not have been encoded (a length
  // field pointing past the buffer). A flip may legitimately decode —
  // e.g. inside a feature double — but the string fields must still fit
  // inside the payload that produced them.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10; ++i) {
    LogRecord in;
    in.rec = random_record(rng);
    const std::string payload = kbstore::encode_record(in);
    for (std::size_t byte = 0; byte < payload.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mut = payload;
        mut[byte] = static_cast<char>(mut[byte] ^ (1 << bit));
        const auto out = kbstore::decode_record(mut);
        if (!out) continue;
        EXPECT_LE(out->rec.program.size() + out->rec.machine.size() +
                      out->rec.kind.size() + out->rec.config.size(),
                  mut.size())
            << "decoded strings larger than the buffer they came from";
      }
    }
  }
}

// --- frame walking + durable position accessors --------------------------

TEST(KbStoreLog, WalkFramesReportsBoundsHealthAndTornTail) {
  std::string image = kbstore::log_header(kbstore::kWalType, 3);
  LogRecord a, b, c;
  a.rec = sample("a", 1);
  b.rec = sample("b", 2);
  b.op = Op::Upsert;
  c.rec = sample("c", 3);
  kbstore::append_frame(image, kbstore::encode_record(a));
  kbstore::append_frame(image, kbstore::encode_record(b));
  kbstore::append_frame(image, kbstore::encode_record(c));

  // The visitor sees every intact frame: checksum held and payload decoded.
  std::vector<kbstore::FrameBounds> frames;
  std::vector<Op> ops;
  const auto collect = [&](const kbstore::FrameBounds& fb, LogRecord&& lr) {
    frames.push_back(fb);
    ops.push_back(lr.op);
  };
  const auto walked =
      kbstore::walk_frames(image, kbstore::kHeaderSize, collect);
  EXPECT_TRUE(walked.clean());
  EXPECT_FALSE(walked.damaged);
  EXPECT_EQ(walked.good_bytes, image.size());
  EXPECT_EQ(walked.count, 3u);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].offset, kbstore::kHeaderSize);
  for (std::size_t i = 1; i < frames.size(); ++i)
    EXPECT_EQ(frames[i].offset, frames[i - 1].end());
  EXPECT_EQ(ops[1], Op::Upsert);
  const std::vector<kbstore::FrameBounds> all = frames;

  // Torn tail: a partial final frame is not reported as a frame at all.
  frames.clear();
  const auto torn = kbstore::walk_frames(
      std::string_view(image).substr(0, image.size() - 3),
      kbstore::kHeaderSize, collect);
  EXPECT_FALSE(torn.clean());
  EXPECT_EQ(torn.stop, kbstore::FrameStatus::Short);
  EXPECT_FALSE(torn.damaged);
  EXPECT_EQ(torn.count, 2u);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(torn.good_bytes, all[1].end());

  // Corrupt interior frame: reported as the damaged frame, flagged, and
  // walking stops there.
  std::string flipped = image;
  flipped[all[1].offset + kbstore::kFrameOverhead] ^= 0x80;
  frames.clear();
  const auto bad =
      kbstore::walk_frames(flipped, kbstore::kHeaderSize, collect);
  EXPECT_FALSE(bad.clean());
  ASSERT_EQ(frames.size(), 1u);  // frame 0 passed its checksum
  EXPECT_EQ(bad.stop, kbstore::FrameStatus::BadCrc);
  ASSERT_TRUE(bad.damaged);
  EXPECT_EQ(bad.damaged->offset, all[1].offset);
  EXPECT_EQ(bad.damaged->end(), all[1].end());
  EXPECT_EQ(bad.good_bytes, all[0].end());
}

TEST(KbStore, WalPositionTracksDurableFramesAcrossReopenAndCompaction) {
  TempStoreDir dir("kbstore_test_walpos");
  auto store = Store::open(dir.path, every_append());
  ASSERT_NE(store, nullptr);
  const kbstore::WalPosition fresh = store->wal_position();
  EXPECT_EQ(fresh.generation, 1u);
  EXPECT_EQ(fresh.seq, 0u);
  EXPECT_EQ(fresh.chain_crc, 0u);

  store->append(sample("a", 1));
  store->append(sample("b", 2));
  store->upsert(sample("a", 3));
  const kbstore::WalPosition pos = store->wal_position();
  EXPECT_EQ(pos.generation, store->wal_generation());
  EXPECT_EQ(pos.seq, store->durable_seq());
  EXPECT_EQ(pos.seq, 3u);
  EXPECT_NE(pos.chain_crc, 0u);

  // The position is a pure function of the durable bytes: reopening the
  // store (which re-walks the WAL) reproduces it exactly.
  store.reset();
  store = Store::open(dir.path, every_append());
  ASSERT_NE(store, nullptr);
  const kbstore::WalPosition reopened = store->wal_position();
  EXPECT_EQ(reopened.generation, pos.generation);
  EXPECT_EQ(reopened.seq, pos.seq);
  EXPECT_EQ(reopened.chain_crc, pos.chain_crc);

  // Compaction folds the log into a snapshot: new generation, empty WAL.
  ASSERT_TRUE(store->compact());
  const kbstore::WalPosition compacted = store->wal_position();
  EXPECT_EQ(compacted.generation, pos.generation + 1);
  EXPECT_EQ(compacted.seq, 0u);
  EXPECT_EQ(compacted.chain_crc, 0u);
}

TEST(KbStore, WalPositionAdvancesOnlyWithDurability) {
  TempStoreDir dir("kbstore_test_walpos_batch");
  kbstore::Options opts;
  opts.flush = kbstore::Options::Flush::Manual;
  opts.background_compaction = false;
  auto store = Store::open(dir.path, opts);
  ASSERT_NE(store, nullptr);

  // Un-flushed group-commit bytes are readable in-process but are not
  // durable — the position (what replication may ship) must not move.
  store->append(sample("a", 1));
  store->append(sample("b", 2));
  EXPECT_EQ(store->size(), 2u);
  EXPECT_EQ(store->wal_position().seq, 0u);

  ASSERT_TRUE(store->sync());
  const kbstore::WalPosition synced = store->wal_position();
  EXPECT_EQ(synced.seq, 2u);
  EXPECT_NE(synced.chain_crc, 0u);
}

}  // namespace
