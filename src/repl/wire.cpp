#include "repl/wire.hpp"

#include "support/crc32.hpp"

namespace ilc::repl {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

constexpr std::size_t kBodyFixed = 1 + 8 + 8;  // type + a + b

}  // namespace

Msg Msg::hello(const kbstore::WalPosition& pos) {
  Msg m;
  m.type = MsgType::Hello;
  m.a = pos.generation;
  m.b = pos.seq;
  put_u32(m.payload, pos.chain_crc);
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
  return payload.size() >= 4 ? get_u32(payload.data()) : 0;
}

void encode_msg(std::string& out, const Msg& m) {
  std::string body;
  body.reserve(kBodyFixed + m.payload.size());
  body.push_back(static_cast<char>(m.type));
  put_u64(body, m.a);
  put_u64(body, m.b);
  body.append(m.payload);
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  put_u32(out, support::crc32(body));
  out.append(body);
}

MsgReader::Status MsgReader::next(Msg& m) {
  if (corrupt_) return Status::Corrupt;
  if (buf_.size() - off_ < 8) return Status::NeedMore;
  const std::uint32_t len = get_u32(buf_.data() + off_);
  const std::uint32_t crc = get_u32(buf_.data() + off_ + 4);
  if (len < kBodyFixed || len > kMaxBody) {
    corrupt_ = true;
    return Status::Corrupt;
  }
  if (buf_.size() - off_ - 8 < len) return Status::NeedMore;
  const std::string_view body(buf_.data() + off_ + 8, len);
  if (support::crc32(body) != crc) {
    corrupt_ = true;
    return Status::Corrupt;
  }
  const auto type = static_cast<std::uint8_t>(body[0]);
  if (type < static_cast<std::uint8_t>(MsgType::Hello) ||
      type > static_cast<std::uint8_t>(MsgType::Reject)) {
    corrupt_ = true;
    return Status::Corrupt;
  }
  m.type = static_cast<MsgType>(type);
  m.a = get_u64(body.data() + 1);
  m.b = get_u64(body.data() + 9);
  m.payload.assign(body.data() + kBodyFixed, body.size() - kBodyFixed);
  off_ += 8 + len;
  // Compact once the consumed prefix dominates, keeping feed() amortized.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return Status::Ok;
}

}  // namespace ilc::repl
