// Wire format of the replication channel (ilc::repl): the messages a
// leader's ShipSource and a follower's Applier exchange, byte-framed so
// the same stream works over any ordered transport — a TCP connection, a
// pipe, or a file replayed later.
//
//   msg  := u32 body_len | u32 crc32(body) | body
//   body := u8 type | u64 a | u64 b | payload
//
// A message is one KB log frame (kbstore/log_format.hpp) whose payload
// is the body. The CRC covers the whole body, so a torn or corrupted ship
// is detected at the message boundary; WAL frames inside a Frames payload
// additionally carry their own per-frame CRCs, which the follower
// re-verifies before a byte reaches its log.
//
//   Hello      follower -> leader   a=generation b=seq payload=u32 chain
//              "I am at this durable position; resume me from here."
//   Snapshot   leader -> follower   a=wal_generation payload=snapshot
//              file image, verbatim (empty = leader has no snapshot):
//              bootstrap / post-compaction reset.
//   Frames     leader -> follower   a=generation b=start_seq payload=raw
//              WAL frame bytes, verbatim.
//   Heartbeat  leader -> follower   a=generation b=seq (leader's durable
//              position; lag is measured against the latest one)
//   Reject     leader -> follower   payload=reason. The follower must
//              stop: its history is not a prefix of the leader's
//              (split-brain) or the handshake was malformed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "kbstore/store.hpp"

namespace ilc::repl {

enum class MsgType : std::uint8_t {
  Hello = 1,
  Snapshot = 2,
  Frames = 3,
  Heartbeat = 4,
  Reject = 5,
};

/// Body length bound: a snapshot image plus slack. A length beyond this
/// is treated as stream corruption, not a huge message.
inline constexpr std::uint32_t kMaxBody = (1u << 28) + 1024;

struct Msg {
  MsgType type = MsgType::Heartbeat;
  std::uint64_t a = 0;  // generation (all types)
  std::uint64_t b = 0;  // seq (Hello/Frames/Heartbeat)
  std::string payload;

  static Msg hello(const kbstore::WalPosition& pos);
  static Msg snapshot(std::uint64_t wal_generation, std::string image);
  static Msg frames(std::uint64_t generation, std::uint64_t start_seq,
                    std::string raw);
  static Msg heartbeat(std::uint64_t generation, std::uint64_t seq);
  static Msg reject(std::string reason);

  /// Hello only: the chain CRC carried in the payload.
  std::uint32_t hello_chain() const;
};

/// Append the framed encoding of `m` to `out`.
void encode_msg(std::string& out, const Msg& m);

/// Incremental decoder: feed arbitrary byte chunks, pop complete
/// messages. A CRC mismatch, an insane length or a malformed body poisons
/// the stream — the transport must drop the connection and re-handshake
/// (the follower's durable position makes that cheap).
class MsgReader {
 public:
  void feed(std::string_view bytes) { buf_.append(bytes); }

  enum class Status { Ok, NeedMore, Corrupt };
  /// Pop the next complete message into `m`.
  Status next(Msg& m);

  bool corrupt() const { return corrupt_; }
  /// Bytes buffered but not yet consumed (a torn tail mid-ship).
  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::string buf_;
  std::size_t off_ = 0;  // consumed prefix, compacted lazily
  bool corrupt_ = false;
};

}  // namespace ilc::repl
