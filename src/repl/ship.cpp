#include "repl/ship.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "kbstore/log_format.hpp"
#include "obs/metrics.hpp"
#include "support/crc32.hpp"

namespace ilc::repl {

namespace fs = std::filesystem;

namespace {

obs::Counter& c_frames_shipped() {
  static obs::Counter c =
      obs::Registry::instance().counter("repl.frames_shipped");
  return c;
}
obs::Counter& c_bytes_shipped() {
  static obs::Counter c =
      obs::Registry::instance().counter("repl.bytes_shipped");
  return c;
}
obs::Counter& c_snapshots_shipped() {
  static obs::Counter c =
      obs::Registry::instance().counter("repl.snapshots_shipped");
  return c;
}
obs::Counter& c_rejects() {
  static obs::Counter c = obs::Registry::instance().counter("repl.rejects");
  return c;
}

bool read_file_bytes(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream os;
  os << f.rdbuf();
  out = os.str();
  return true;
}

}  // namespace

ShipSource::WalImage ShipSource::read_wal() const {
  WalImage img;
  if (!read_file_bytes(dir_ + "/wal.ilc", img.bytes)) return img;
  const auto generation = kbstore::read_header(img.bytes, kbstore::kWalType);
  if (!generation) return img;  // mid-recreation (compaction) or torn
  img.generation = *generation;
  // Only intact frames ship: a corrupt frame in the durable region is real
  // corruption, the torn tail of an in-progress flush just "not yet".
  kbstore::walk_frames(img.bytes, kbstore::kHeaderSize,
                       [&](const kbstore::FrameBounds& fb,
                           kbstore::LogRecord&&) {
                         img.ends.push_back(fb.end());
                       });
  img.ok = true;
  return img;
}

std::optional<kbstore::WalPosition> ShipSource::position() const {
  const WalImage img = read_wal();
  if (!img.ok) return std::nullopt;
  return kbstore::WalPosition{img.generation, img.ends.size(),
                              img.chain_of(img.ends.size())};
}

std::uint32_t ShipSource::WalImage::chain_of(std::uint64_t frames) const {
  return support::crc32(std::string_view(bytes).substr(
      kbstore::kHeaderSize, end_of(frames) - kbstore::kHeaderSize));
}

bool ShipSource::handshake(const Msg& hello, std::string& out,
                           std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why) *why = reason;
    encode_msg(out, Msg::reject(reason));
    c_rejects().add(1);
    positioned_ = false;
    return false;
  };
  if (hello.type != MsgType::Hello) return fail("protocol error: not a hello");

  const WalImage img = read_wal();
  if (!img.ok) return fail("leader store unreadable: " + dir_);
  const std::uint64_t leader_seq = img.ends.size();

  if (hello.a > img.generation)
    return fail("split-brain: follower generation " + std::to_string(hello.a) +
                " is ahead of leader generation " +
                std::to_string(img.generation));
  if (hello.a == img.generation) {
    if (hello.b > leader_seq)
      return fail("split-brain: follower holds " + std::to_string(hello.b) +
                  " frames, leader only " + std::to_string(leader_seq) +
                  " at generation " + std::to_string(img.generation));
    // The follower's history must be a byte-prefix of ours: chain the CRC
    // over our first `hello.b` frames and compare.
    if (img.chain_of(hello.b) != hello.hello_chain())
      return fail("split-brain: follower history diverges from leader at "
                  "generation " + std::to_string(hello.a) + ", frame " +
                  std::to_string(hello.b));
    gen_ = img.generation;
    next_seq_ = hello.b;
  } else {
    // Older generation: bootstrap from the snapshot on the next poll.
    gen_ = 0;
    next_seq_ = 0;
  }
  positioned_ = true;
  return true;
}

bool ShipSource::poll(std::string& out) {
  if (!positioned_) return false;
  const WalImage img = read_wal();
  if (!img.ok) return true;  // compaction window / transient: retry later

  if (img.generation != gen_) {
    // The leader compacted (or this session needs its bootstrap): ship
    // the snapshot image — verbatim — and restart frame shipping at 0.
    std::string snap;
    if (fs::is_regular_file(dir_ + "/snapshot.ilc") &&
        !read_file_bytes(dir_ + "/snapshot.ilc", snap))
      return false;
    if (!snap.empty()) {
      const auto snap_generation =
          kbstore::read_header(snap, kbstore::kSnapshotType);
      const bool clean =
          snap_generation &&
          kbstore::walk_frames(
              snap, kbstore::kHeaderSize,
              [](const kbstore::FrameBounds&, kbstore::LogRecord&&) {})
              .clean();
      if (!clean) return false;  // corrupt leader
      // Snapshot renamed but WAL not yet recreated: the on-disk pair is
      // (new snapshot, old WAL) and this WAL's generation will be <= the
      // snapshot's. Ship nothing yet; the recreated WAL arrives next poll.
      if (*snap_generation >= img.generation) return true;
    }
    encode_msg(out, Msg::snapshot(img.generation, std::move(snap)));
    c_snapshots_shipped().add(1);
    gen_ = img.generation;
    next_seq_ = 0;
  }

  const std::uint64_t leader_seq = img.ends.size();
  if (next_seq_ > leader_seq) {
    // The WAL shrank within a generation: impossible in a healthy store
    // (only compaction truncates, and that bumps the generation).
    return false;
  }
  if (next_seq_ < leader_seq) {
    const std::uint64_t from = img.end_of(next_seq_);
    const std::uint64_t to = img.end_of(leader_seq);
    encode_msg(out, Msg::frames(gen_, next_seq_,
                                img.bytes.substr(from, to - from)));
    c_frames_shipped().add(leader_seq - next_seq_);
    c_bytes_shipped().add(to - from);
    next_seq_ = leader_seq;
  }
  encode_msg(out, Msg::heartbeat(gen_, leader_seq));
  return true;
}

std::optional<std::string> divergence(const std::string& leader_dir,
                                      const std::string& follower_dir) {
  for (const char* name : {"/snapshot.ilc", "/wal.ilc"}) {
    std::string a, b;
    const bool has_a = read_file_bytes(leader_dir + name, a);
    const bool has_b = read_file_bytes(follower_dir + name, b);
    if (has_a != has_b)
      return std::string(name + 1) + ": present only on " +
             (has_a ? "leader" : "follower");
    if (a != b) {
      std::size_t i = 0;
      while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
      return std::string(name + 1) + ": differs at byte " +
             std::to_string(i) + " (leader " + std::to_string(a.size()) +
             " bytes, follower " + std::to_string(b.size()) + ")";
    }
  }
  return std::nullopt;
}

}  // namespace ilc::repl
