// On-disk format shared by the store's write-ahead log and snapshot
// files; the replication wire (repl/wire.hpp) reuses its frame. Pure
// byte-level framing — no file IO — so fault-injection tests can corrupt
// buffers directly.
//
//   file   := header frame*
//   header := magic "ilckb1" | type ('W' | 'S') | '\n' | u64 generation
//   frame  := u32 payload_len | u32 crc32(payload) | payload
//
// (all integers little-endian). The generation links a snapshot to the
// WAL it covers: a snapshot at generation G contains every record from
// WAL generations <= G, and a fresh WAL is created at G+1 after each
// compaction. Recovery replays a WAL only when its generation is newer
// than the snapshot's, which makes the compaction sequence (publish
// snapshot, then truncate WAL) crash-safe at every intermediate point.
//
// read_frame is the one parser of a frame. walk_frames runs it over a
// log image, decoding each intact frame's record once, and stops at the
// first torn or damaged frame, reporting how many bytes were intact, so
// recovery keeps every fully-written record and discards only the tail.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "kbstore/record_codec.hpp"

namespace ilc::kbstore {

inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kFrameOverhead = 8;  // length + crc
inline constexpr std::uint32_t kMaxPayload = 1u << 28;
inline constexpr char kWalType = 'W';
inline constexpr char kSnapshotType = 'S';

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

inline std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

std::string log_header(char type, std::uint64_t generation);

/// The generation in the header at the front of `bytes`; nullopt when
/// they are shorter than a header or its magic or type byte differs.
std::optional<std::uint64_t> read_header(std::string_view bytes, char type);

/// Append one length-prefixed, CRC32-checksummed frame to `out`.
void append_frame(std::string& out, std::string_view payload);

/// What read_frame finds at an offset, and why walk_frames stopped.
enum class FrameStatus {
  Ok,         ///< an intact frame (walk_frames: no bytes left to walk)
  Short,      ///< the bytes end inside the frame: torn, or still arriving
  TooLong,    ///< the length prefix exceeds the caller's bound
  BadCrc,     ///< complete, but the payload fails its checksum
  BadRecord,  ///< checksum holds, payload is no LogRecord (walk_frames only)
};

/// Parse the frame that starts at `off`. On Ok, `payload` views its
/// checksummed payload; the frame ends kFrameOverhead + payload.size()
/// bytes past `off`. A length beyond `max_len` is TooLong even before
/// the payload has arrived.
FrameStatus read_frame(std::string_view bytes, std::size_t off,
                       std::uint32_t max_len, std::string_view& payload);

/// Where one frame sits within the bytes walked. Replication ships raw
/// frame bytes by these bounds, and `kb_tool wal-dump` prints them.
struct FrameBounds {
  std::uint64_t offset = 0;  ///< of the length prefix
  std::uint32_t len = 0;     ///< payload length
  /// Whole frame (length prefix + crc + payload) as stored.
  std::uint64_t size() const { return kFrameOverhead + len; }
  std::uint64_t end() const { return offset + size(); }
};

struct WalkedFrames {
  std::uint64_t count = 0;       ///< intact frames visited
  std::uint64_t good_bytes = 0;  ///< `start` + the intact frames
  /// Ok when the walk consumed every byte; otherwise what read_frame (or
  /// the record decoder) found at good_bytes.
  FrameStatus stop = FrameStatus::Ok;
  /// The complete frame the walk stopped at when it is BadCrc or
  /// BadRecord; everything after it is suspect.
  std::optional<FrameBounds> damaged;
  bool clean() const { return stop == FrameStatus::Ok; }
};

/// Receives each intact frame's bounds and its decoded record.
using FrameVisitor = std::function<void(const FrameBounds&, LogRecord&&)>;

/// Walk the frames of a log image from byte `start` (kHeaderSize to walk
/// past the header, 0 for a bare frame stream such as a shipped
/// replication batch), calling `visit` for each intact one in order, and
/// stop at the first frame that is torn, too long, fails its checksum or
/// does not decode.
WalkedFrames walk_frames(std::string_view bytes, std::uint64_t start,
                         const FrameVisitor& visit);

}  // namespace ilc::kbstore
