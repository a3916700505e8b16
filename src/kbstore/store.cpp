#include "kbstore/store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "kbstore/log_format.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/crc32.hpp"
#include "obs/timer.hpp"
#include "support/failpoint.hpp"
#include "support/hash.hpp"

#ifdef __unix__
#include <unistd.h>
#endif

namespace ilc::kbstore {

namespace fs = std::filesystem;

namespace {

// Process-wide storage metrics (aggregated across stores): mutation and
// durability rates as counters, WAL append/flush and compaction latencies
// as histograms, crash-recovery findings as monotone counters.
obs::Counter& c_appends() {
  static obs::Counter c = obs::Registry::instance().counter("kbstore.appends");
  return c;
}
obs::Counter& c_flushes() {
  static obs::Counter c = obs::Registry::instance().counter("kbstore.flushes");
  return c;
}
obs::Counter& c_compactions() {
  static obs::Counter c =
      obs::Registry::instance().counter("kbstore.compactions");
  return c;
}
obs::Counter& c_recovered_records() {
  static obs::Counter c =
      obs::Registry::instance().counter("kbstore.recovery.records");
  return c;
}
obs::Counter& c_torn_bytes() {
  static obs::Counter c =
      obs::Registry::instance().counter("kbstore.recovery.torn_bytes");
  return c;
}
obs::Counter& c_stale_wals() {
  static obs::Counter c =
      obs::Registry::instance().counter("kbstore.recovery.stale_wals");
  return c;
}
obs::Histogram& h_append_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("kbstore.wal.append_us");
  return h;
}
obs::Histogram& h_flush_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("kbstore.wal.flush_us");
  return h;
}
obs::Histogram& h_compaction_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("kbstore.compaction_us");
  return h;
}
// Durable-position gauges (replication lag is measured against these).
// Process-wide like every kbstore metric: one serving store per process
// is the deployment shape; in-process test fleets read positions via
// Store::wal_position() instead.
obs::Gauge& g_generation() {
  static obs::Gauge g =
      obs::Registry::instance().gauge("kbstore.wal_generation");
  return g;
}
obs::Gauge& g_durable_seq() {
  static obs::Gauge g = obs::Registry::instance().gauge("kbstore.durable_seq");
  return g;
}

/// The generation in the header of the log `in` reads; nullopt when it
/// cannot be read, is shorter than a header, or is foreign.
std::optional<std::uint64_t> read_log_header(std::istream& in, char type) {
  char bytes[kHeaderSize];
  in.read(bytes, kHeaderSize);
  return read_header(
      std::string_view(bytes, static_cast<std::size_t>(in.gcount())), type);
}

/// Walk the frames after the header in `in`, handing each intact record
/// to `visit` as it is decoded and chaining `chain` (when given) over the
/// intact frames' bytes. Each read tops the buffer up to a whole
/// kLogChunk; the frame a chunk cuts moves to the front for the next
/// read, and a frame longer than a chunk grows the buffer. Offsets in the
/// result are file offsets; nullopt on a read error.
std::optional<WalkedFrames> replay_frames(std::istream& in,
                                          const FrameVisitor& visit,
                                          std::uint32_t* chain) {
  WalkedFrames total;
  total.good_bytes = kHeaderSize;
  std::string buf;  // the file from total.good_bytes on, as read so far
  while (true) {
    const std::size_t have = buf.size();
    const std::size_t want = kLogChunk - have % kLogChunk;
    buf.resize(have + want);
    in.read(buf.data() + have, static_cast<std::streamsize>(want));
    if (in.bad()) return std::nullopt;
    const auto got = static_cast<std::size_t>(in.gcount());
    buf.resize(have + got);

    const WalkedFrames w = walk_frames(buf, 0, visit);
    if (chain)
      *chain = support::crc32(std::string_view(buf).substr(0, w.good_bytes),
                              *chain);
    total.count += w.count;
    total.stop = w.stop;
    if (w.damaged)
      total.damaged = FrameBounds{total.good_bytes + w.damaged->offset,
                                  w.damaged->len};
    total.good_bytes += w.good_bytes;
    const bool more = w.stop == FrameStatus::Ok || w.stop == FrameStatus::Short;
    if (got < want || !more) return total;
    buf.erase(0, w.good_bytes);
  }
}

bool fsync_file(std::FILE* f) {
#ifdef __unix__
  return ::fsync(fileno(f)) == 0;
#else
  (void)f;
  return true;
#endif
}

}  // namespace

Store::Store(std::string dir, Options opts)
    : dir_(std::move(dir)), opts_(opts), follower_(opts.follower) {}

Store::~Store() {
  if (bg_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(bg_mu_);
      bg_stop_ = true;
    }
    bg_cv_.notify_one();
    bg_.join();
  }
  std::lock_guard<std::mutex> lock(wal_mu_);
  flush_locked();
  if (wal_) std::fclose(wal_);
}

std::unique_ptr<Store> Store::open(const std::string& dir, Options opts,
                                   RecoveryInfo* info) {
  std::unique_ptr<Store> store(new Store(dir, opts));
  RecoveryInfo ri;
  if (!store->recover(ri)) return nullptr;
  store->recovery_ = ri;
  c_recovered_records().add(ri.snapshot_records + ri.wal_records);
  c_torn_bytes().add(ri.torn_bytes);
  if (ri.stale_wal) c_stale_wals().add(1);
  if (info) *info = ri;
  if (store->opts_.background_compaction && !store->opts_.follower)
    store->bg_ = std::thread([s = store.get()] { s->background_loop(); });
  return store;
}

std::unique_ptr<Store> Store::in_memory() {
  return std::unique_ptr<Store>(new Store("", Options{}));
}

std::string Store::key_of(const std::string& program,
                          const std::string& machine,
                          const std::string& kind) {
  std::string key;
  key.reserve(program.size() + machine.size() + kind.size() + 2);
  key += program;
  key += '\x1f';
  key += machine;
  key += '\x1f';
  key += kind;
  return key;
}

Store::Shard& Store::shard_of(const std::string& key) {
  return shards_[support::hash_bytes(key.data(), key.size()) % kShards];
}

const Store::Shard& Store::shard_of(const std::string& key) const {
  return shards_[support::hash_bytes(key.data(), key.size()) % kShards];
}

// ---- recovery ------------------------------------------------------------

bool Store::recover(RecoveryInfo& info) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) return false;
  // A leftover snapshot.tmp is a compaction that crashed before publish.
  fs::remove(dir_ + "/snapshot.tmp", ec);

  const FrameVisitor replay = [this](const FrameBounds&, LogRecord&& lr) {
    apply(std::move(lr));
  };
  std::uint64_t snapshot_generation = 0;
  if (fs::is_regular_file(snapshot_path())) {
    std::ifstream snapshot(snapshot_path(), std::ios::binary);
    // Snapshots are published atomically, so damage is real corruption,
    // not a torn write: refuse to open rather than silently drop data.
    const std::optional<std::uint64_t> generation =
        read_log_header(snapshot, kSnapshotType);
    if (!generation) return false;
    const std::optional<WalkedFrames> walked =
        replay_frames(snapshot, replay, nullptr);
    if (!walked || !walked->clean()) return false;
    info.snapshot_records = walked->count;
    snapshot_generation = *generation;
  }
  dead_ = 0;  // snapshot contents are the baseline, not garbage

  if (fs::is_regular_file(wal_path())) {
    const std::uint64_t size = fs::file_size(wal_path(), ec);
    if (ec) return false;
    if (size < kHeaderSize) {
      // Torn before the header finished: an empty log, minus the scraps.
      info.torn_tail = size != 0;
      info.torn_bytes = size;
    } else {
      std::ifstream wal(wal_path(), std::ios::binary);
      const std::optional<std::uint64_t> generation =
          read_log_header(wal, kWalType);
      if (!generation) return false;  // full-size foreign header
      if (*generation <= snapshot_generation) {
        // Compaction crashed between snapshot publish and WAL truncation:
        // everything in this WAL is already in the snapshot.
        info.stale_wal = true;
      } else {
        std::uint32_t chain = 0;
        const std::optional<WalkedFrames> walked =
            replay_frames(wal, replay, &chain);
        if (!walked) return false;
        info.wal_records = walked->count;
        if (!walked->clean()) {
          info.torn_tail = true;
          info.torn_bytes = size - walked->good_bytes;
          fs::resize_file(wal_path(), walked->good_bytes, ec);
          if (ec) return false;
        }
        wal_ = std::fopen(wal_path().c_str(), "ab");
        if (!wal_) return false;
        wal_generation_ = *generation;
        wal_bytes_ = walked->good_bytes;
        wal_seq_ = walked->count;
        wal_chain_ = chain;
      }
    }
  }

  // Missing, torn-at-header, or stale: a fresh generation.
  if (!wal_ && !start_wal_locked(snapshot_generation + 1)) return false;
  publish_position_locked();  // single-threaded here: open() owns the store
  return true;
}

// ---- index ---------------------------------------------------------------

bool Store::apply(LogRecord&& lr) {
  const std::string key = key_of(lr.rec.program, lr.rec.machine, lr.rec.kind);
  Shard& shard = shard_of(key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  switch (lr.op) {
    case Op::Append: {
      shard.map[key].push_back({std::move(lr.rec), next_seq_++});
      ++live_;
      return false;
    }
    case Op::Upsert: {
      auto& vec = shard.map[key];
      if (!vec.empty()) {
        vec.front().rec = std::move(lr.rec);  // seq (insertion slot) kept
        ++dead_;
        return true;
      }
      vec.push_back({std::move(lr.rec), next_seq_++});
      ++live_;
      return false;
    }
  }
  return false;
}

bool Store::log_and_apply(LogRecord lr) {
  ILC_CHECK_MSG(!is_follower(),
                "store is a replication follower (read-only): " + dir_);
  if (!has_dir()) {  // in memory: the index is the whole store
    std::lock_guard<std::mutex> lock(wal_mu_);
    return apply(std::move(lr));
  }
  obs::ScopedTimerUs timer(h_append_us());
  // Fault injection: "kbstore.wal_append" simulates an append that cannot
  // reach the log (disk full, I/O error). The error kind throws here too —
  // append()/upsert() report failure by exception.
  if (support::failpoint("kbstore.wal_append"))
    throw support::FailpointError("injected kbstore.wal_append failure");
  std::string payload = encode_record(lr);
  std::lock_guard<std::mutex> lock(wal_mu_);
  append_frame(pending_, payload);
  ++pending_records_;
  ++appends_;
  c_appends().add(1);
  const bool result = apply(std::move(lr));
  switch (opts_.flush) {
    case Options::Flush::EveryAppend:
      flush_locked();
      break;
    case Options::Flush::Batched:
      if (pending_records_ >= opts_.batch_appends) flush_locked();
      break;
    case Options::Flush::Manual:
      break;
  }
  maybe_request_compaction_locked();
  return result;
}

void Store::append(kb::ExperimentRecord rec) {
  log_and_apply({Op::Append, std::move(rec)});
}

bool Store::upsert(kb::ExperimentRecord rec) {
  return log_and_apply({Op::Upsert, std::move(rec)});
}

std::optional<kb::ExperimentRecord> Store::find(const std::string& program,
                                                const std::string& machine,
                                                const std::string& kind) const {
  const std::string key = key_of(program, machine, kind);
  const Shard& shard = shard_of(key);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.empty()) return std::nullopt;
  return it->second.front().rec;
}

std::vector<Store::Entry> Store::collect_entries() const {
  std::vector<Entry> out;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [key, vec] : shard.map)
      for (const Entry& e : vec) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
  return out;
}

std::vector<kb::ExperimentRecord> Store::records() const {
  std::vector<kb::ExperimentRecord> out;
  for (Entry& e : collect_entries()) out.push_back(std::move(e.rec));
  return out;
}

std::size_t Store::size() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return live_;
}

StoreStats Store::stats() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  StoreStats s;
  s.live = live_;
  s.dead = dead_;
  s.appends = appends_;
  s.flushes = flushes_;
  s.compactions = compactions_;
  s.wal_bytes = wal_bytes_;
  return s;
}

WalPosition Store::wal_position() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return {wal_generation_, wal_seq_, wal_chain_};
}

std::uint64_t Store::wal_generation() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return wal_generation_;
}

std::uint64_t Store::durable_seq() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return wal_seq_;
}

void Store::publish_position_locked() {
  g_generation().set(static_cast<std::int64_t>(wal_generation_));
  g_durable_seq().set(static_cast<std::int64_t>(wal_seq_));
}

// ---- replication follower ------------------------------------------------

void Store::clear_index_locked() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.map.clear();
  }
  live_ = 0;
  dead_ = 0;
  next_seq_ = 0;
}

std::size_t Store::follower_append(std::string_view frames) {
  if (!is_follower()) return 0;
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (!wal_) return 0;
  // Verify the whole batch before a byte lands: every frame complete,
  // CRC-clean, decodable, and nothing else in the buffer. The walk decodes
  // each record once; they are applied after the write.
  std::vector<LogRecord> records;
  std::uint64_t last_offset = 0;
  const WalkedFrames walked =
      walk_frames(frames, 0, [&](const FrameBounds& fb, LogRecord&& lr) {
        last_offset = fb.offset;
        records.push_back(std::move(lr));
      });
  if (!walked.clean() || walked.count == 0) return 0;

  // Fault injection: "kbstore.follower_torn" is the follower crashing
  // mid-apply — a prefix of the batch reaches the file (cut mid-frame),
  // the rest never does. Recovery truncates the torn tail and replication
  // resumes from the surviving position.
  if (support::failpoint("kbstore.follower_torn")) {
    const std::size_t cut =
        walked.count > 1 ? last_offset + 3 : frames.size() / 2;
    std::fwrite(frames.data(), 1, cut, wal_);
    std::fflush(wal_);
    std::fclose(wal_);  // the "crash": no further appends land here;
    wal_ = nullptr;     // reopening the store truncates the torn tail
    return 0;
  }

  if (std::fwrite(frames.data(), 1, frames.size(), wal_) != frames.size() ||
      std::fflush(wal_) != 0)
    return 0;
  if (opts_.fsync_on_flush && !fsync_file(wal_)) return 0;

  for (LogRecord& lr : records) apply(std::move(lr));
  wal_bytes_ += frames.size();
  wal_seq_ += walked.count;
  wal_chain_ = support::crc32(frames, wal_chain_);
  appends_ += walked.count;
  ++flushes_;
  c_appends().add(walked.count);
  c_flushes().add(1);
  publish_position_locked();
  return walked.count;
}

bool Store::follower_install_snapshot(std::string_view snapshot,
                                      std::uint64_t wal_generation) {
  if (!is_follower() || wal_generation == 0) return false;
  std::lock_guard<std::mutex> lock(wal_mu_);

  std::vector<LogRecord> records;
  if (!snapshot.empty()) {
    if (!read_header(snapshot, kSnapshotType)) return false;  // corrupt image
    const WalkedFrames walked = walk_frames(
        snapshot, kHeaderSize, [&](const FrameBounds&, LogRecord&& lr) {
          records.push_back(std::move(lr));
        });
    if (!walked.clean()) return false;  // corrupt image
    const std::string tmp = dir_ + "/snapshot.tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) return false;
    const bool ok =
        std::fwrite(snapshot.data(), 1, snapshot.size(), f) ==
            snapshot.size() &&
        std::fflush(f) == 0 && (!opts_.fsync_on_flush || fsync_file(f));
    std::fclose(f);
    if (!ok) return false;
    std::error_code ec;
    fs::rename(tmp, snapshot_path(), ec);
    if (ec) return false;
  } else {
    // The leader's history starts at this WAL: no snapshot to mirror.
    std::error_code ec;
    fs::remove(snapshot_path(), ec);
  }

  clear_index_locked();
  for (LogRecord& lr : records) apply(std::move(lr));
  dead_ = 0;

  // Restart the WAL at the leader's generation; the header bytes are a
  // pure function of (type, generation), so the files stay identical.
  if (!start_wal_locked(wal_generation)) return false;
  pending_.clear();
  pending_records_ = 0;
  ++compactions_;  // a follower "compaction": adopted from the leader
  publish_position_locked();
  return true;
}

// ---- durability ----------------------------------------------------------

bool Store::start_wal_locked(std::uint64_t generation) {
  if (wal_) std::fclose(wal_);
  wal_ = std::fopen(wal_path().c_str(), "wb");
  if (!wal_) return false;
  wal_generation_ = generation;
  const std::string header = log_header(kWalType, generation);
  if (std::fwrite(header.data(), 1, header.size(), wal_) != header.size() ||
      std::fflush(wal_) != 0)
    return false;
  if (opts_.fsync_on_flush && !fsync_file(wal_)) return false;
  wal_bytes_ = kHeaderSize;
  wal_seq_ = 0;
  wal_chain_ = 0;
  return true;
}

bool Store::flush_locked() {
  if (pending_.empty()) return true;
  if (!wal_) return false;
  // Fault injection: "kbstore.wal_flush" (error kind) fails the flush the
  // way a full disk would — pending bytes stay buffered, sync() returns
  // false, and a later flush after the fault clears still commits them.
  if (support::failpoint("kbstore.wal_flush")) return false;
  obs::ScopedTimerUs timer(h_flush_us());
  if (std::fwrite(pending_.data(), 1, pending_.size(), wal_) !=
          pending_.size() ||
      std::fflush(wal_) != 0)
    return false;
  if (opts_.fsync_on_flush && !fsync_file(wal_)) return false;
  wal_bytes_ += pending_.size();
  wal_seq_ += pending_records_;
  // pending_ is a concatenation of whole frames, so chaining over the
  // flushed bytes equals chaining frame-by-frame.
  wal_chain_ = support::crc32(pending_, wal_chain_);
  pending_.clear();
  pending_records_ = 0;
  ++flushes_;
  c_flushes().add(1);
  publish_position_locked();
  return true;
}

bool Store::sync() {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return flush_locked();
}

// ---- compaction ----------------------------------------------------------

void Store::maybe_request_compaction_locked() {
  if (!opts_.background_compaction || !bg_.joinable()) return;
  if (dead_ < opts_.compact_min_dead) return;
  if (static_cast<double>(dead_) <=
      opts_.compact_dead_ratio * static_cast<double>(live_))
    return;
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_compact_ = true;
  }
  bg_cv_.notify_one();
}

bool Store::compact() {
  if (is_follower()) return false;  // followers mirror leader compactions
  if (!has_dir()) return true;      // in memory: nothing to write
  std::lock_guard<std::mutex> lock(wal_mu_);
  return compact_locked();
}

bool Store::promote_to_leader() {
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (!follower_.load(std::memory_order_relaxed)) return false;
    // The fencing compaction: publish the replicated state as a snapshot
    // and restart the WAL one generation up. Any stream the old leader
    // still produces is now for a dead generation, and any follower of
    // the old history that Hellos us gets bootstrapped (or rejected by
    // the chain check) rather than silently extended.
    if (!compact_locked()) return false;
    follower_.store(false, std::memory_order_release);
  }
  if (opts_.background_compaction && !bg_.joinable())
    bg_ = std::thread([this] { background_loop(); });
  return true;
}

bool Store::compact_locked() {
  ILC_ASSERT(has_dir());
  obs::ScopedTimerUs timer(h_compaction_us());
  if (!flush_locked()) return false;

  // Publish the live set as a snapshot at the current WAL generation.
  const std::vector<Entry> live = collect_entries();
  const std::string tmp = dir_ + "/snapshot.tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) return false;
    std::string buf = log_header(kSnapshotType, wal_generation_);
    for (const Entry& e : live) {
      append_frame(buf, encode_record({Op::Append, e.rec}));
      if (buf.size() >= (1u << 20)) {
        if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
          std::fclose(f);
          return false;
        }
        buf.clear();
      }
    }
    const bool ok =
        std::fwrite(buf.data(), 1, buf.size(), f) == buf.size() &&
        std::fflush(f) == 0 && (!opts_.fsync_on_flush || fsync_file(f));
    std::fclose(f);
    if (!ok) return false;
  }
  std::error_code ec;
  fs::rename(tmp, snapshot_path(), ec);
  if (ec) return false;

  // Start a fresh WAL generation. If we crash before this completes, the
  // old WAL's generation <= the snapshot's and recovery discards it.
  if (!start_wal_locked(wal_generation_ + 1)) return false;
  dead_ = 0;
  ++compactions_;
  c_compactions().add(1);
  publish_position_locked();
  return true;
}

void Store::background_loop() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  while (true) {
    bg_cv_.wait(lock, [&] { return bg_stop_ || bg_compact_; });
    if (bg_stop_) return;
    bg_compact_ = false;
    lock.unlock();
    compact();
    lock.lock();
  }
}

// ---- CSV import/export ---------------------------------------------------

bool Store::import_records(const kb::KnowledgeBase& base) {
  for (const kb::ExperimentRecord& rec : base.records()) append(rec);
  return sync();
}

kb::KnowledgeBase Store::export_kb() const {
  kb::KnowledgeBase out;
  for (kb::ExperimentRecord& rec : records()) out.add(std::move(rec));
  return out;
}

}  // namespace ilc::kbstore
