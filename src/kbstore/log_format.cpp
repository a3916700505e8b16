#include "kbstore/log_format.hpp"

#include "support/crc32.hpp"

namespace ilc::kbstore {

namespace {

constexpr char kMagic[6] = {'i', 'l', 'c', 'k', 'b', '1'};

}  // namespace

std::string log_header(char type, std::uint64_t generation) {
  std::string out(kMagic, sizeof(kMagic));
  out.push_back(type);
  out.push_back('\n');
  put_u64(out, generation);
  return out;
}

std::optional<std::uint64_t> read_header(std::string_view bytes, char type) {
  if (bytes.size() < kHeaderSize ||
      bytes.substr(0, sizeof(kMagic)) !=
          std::string_view(kMagic, sizeof(kMagic)) ||
      bytes[6] != type || bytes[7] != '\n')
    return std::nullopt;
  return get_u64(bytes.data() + 8);
}

void append_frame(std::string& out, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, support::crc32(payload));
  out.append(payload);
}

FrameStatus read_frame(std::string_view bytes, std::size_t off,
                       std::uint32_t max_len, std::string_view& payload) {
  if (bytes.size() - off < kFrameOverhead) return FrameStatus::Short;
  const std::uint32_t len = get_u32(bytes.data() + off);
  if (len > max_len) return FrameStatus::TooLong;
  if (bytes.size() - off - kFrameOverhead < len) return FrameStatus::Short;
  const std::string_view body = bytes.substr(off + kFrameOverhead, len);
  if (support::crc32(body) != get_u32(bytes.data() + off + 4))
    return FrameStatus::BadCrc;
  payload = body;
  return FrameStatus::Ok;
}

WalkedFrames walk_frames(std::string_view bytes, std::uint64_t start,
                         const FrameVisitor& visit) {
  WalkedFrames out;
  out.good_bytes = start;
  while (out.good_bytes < bytes.size()) {
    std::string_view payload;
    out.stop = read_frame(bytes, out.good_bytes, kMaxPayload, payload);
    if (out.stop == FrameStatus::Short || out.stop == FrameStatus::TooLong)
      return out;
    const FrameBounds fb{out.good_bytes,
                         get_u32(bytes.data() + out.good_bytes)};
    std::optional<LogRecord> rec;
    if (out.stop == FrameStatus::Ok) {
      rec = decode_record(payload);
      if (!rec) out.stop = FrameStatus::BadRecord;
    }
    if (out.stop != FrameStatus::Ok) {  // complete but damaged: stop here
      out.damaged = fb;
      return out;
    }
    visit(fb, std::move(*rec));
    ++out.count;
    out.good_bytes = fb.end();
  }
  return out;
}

}  // namespace ilc::kbstore
