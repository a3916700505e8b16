#include "repl/wire.hpp"

#include "kbstore/log_format.hpp"

namespace ilc::repl {

namespace {

constexpr std::size_t kBodyFixed = 1 + 8 + 8;  // type + a + b

}  // namespace

Msg Msg::hello(const kbstore::WalPosition& pos) {
  Msg m;
  m.type = MsgType::Hello;
  m.a = pos.generation;
  m.b = pos.seq;
  kbstore::put_u32(m.payload, pos.chain_crc);
  return m;
}

Msg Msg::snapshot(std::uint64_t wal_generation, std::string image) {
  Msg m;
  m.type = MsgType::Snapshot;
  m.a = wal_generation;
  m.payload = std::move(image);
  return m;
}

Msg Msg::frames(std::uint64_t generation, std::uint64_t start_seq,
                std::string raw) {
  Msg m;
  m.type = MsgType::Frames;
  m.a = generation;
  m.b = start_seq;
  m.payload = std::move(raw);
  return m;
}

Msg Msg::heartbeat(std::uint64_t generation, std::uint64_t seq) {
  Msg m;
  m.type = MsgType::Heartbeat;
  m.a = generation;
  m.b = seq;
  return m;
}

Msg Msg::reject(std::string reason) {
  Msg m;
  m.type = MsgType::Reject;
  m.payload = std::move(reason);
  return m;
}

std::uint32_t Msg::hello_chain() const {
  return payload.size() >= 4 ? kbstore::get_u32(payload.data()) : 0;
}

void encode_msg(std::string& out, const Msg& m) {
  std::string body;
  body.reserve(kBodyFixed + m.payload.size());
  body.push_back(static_cast<char>(m.type));
  kbstore::put_u64(body, m.a);
  kbstore::put_u64(body, m.b);
  body.append(m.payload);
  kbstore::append_frame(out, body);
}

MsgReader::Status MsgReader::next(Msg& m) {
  if (corrupt_) return Status::Corrupt;
  std::string_view body;  // set only when the frame is intact
  const auto st = kbstore::read_frame(buf_, off_, kMaxBody, body);
  if (st == kbstore::FrameStatus::Short) return Status::NeedMore;
  const auto type = body.empty() ? 0 : static_cast<std::uint8_t>(body[0]);
  if (st != kbstore::FrameStatus::Ok || body.size() < kBodyFixed ||
      type < static_cast<std::uint8_t>(MsgType::Hello) ||
      type > static_cast<std::uint8_t>(MsgType::Reject)) {
    corrupt_ = true;
    return Status::Corrupt;
  }
  m.type = static_cast<MsgType>(type);
  m.a = kbstore::get_u64(body.data() + 1);
  m.b = kbstore::get_u64(body.data() + 9);
  m.payload.assign(body.data() + kBodyFixed, body.size() - kBodyFixed);
  off_ += kbstore::kFrameOverhead + body.size();
  // Compact once the consumed prefix dominates, keeping feed() amortized.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return Status::Ok;
}

}  // namespace ilc::repl
