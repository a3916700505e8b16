#include "kbstore/record_codec.hpp"

#include <cstring>

#include "kbstore/log_format.hpp"

namespace ilc::kbstore {

namespace {

// ---- encoding ------------------------------------------------------------

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_doubles(std::string& out, const std::vector<double>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (double d : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    put_u64(out, bits);
  }
}

// ---- decoding ------------------------------------------------------------
// A cursor over the payload; every getter fails (returns false) rather
// than reading past the end, so corrupt payloads can never crash recovery.

struct Cursor {
  const char* p;
  std::size_t left;

  bool u32(std::uint32_t& v) {
    if (left < 4) return false;
    v = get_u32(p);
    p += 4;
    left -= 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (left < 8) return false;
    v = get_u64(p);
    p += 8;
    left -= 8;
    return true;
  }

  bool str(std::string& s) {
    std::uint32_t n = 0;
    if (!u32(n) || left < n) return false;
    s.assign(p, n);
    p += n;
    left -= n;
    return true;
  }

  bool doubles(std::vector<double>& v) {
    std::uint32_t n = 0;
    // 64-bit product: a corrupt count near 2^29 must not wrap the check
    // and trigger a giant resize.
    if (!u32(n) || left < std::uint64_t{8} * n) return false;
    v.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t bits = 0;
      u64(bits);
      std::memcpy(&v[i], &bits, sizeof(double));
    }
    return true;
  }
};

}  // namespace

std::string encode_record(const LogRecord& lr) {
  std::string out;
  out.push_back(static_cast<char>(lr.op));
  put_str(out, lr.rec.program);
  put_str(out, lr.rec.machine);
  put_str(out, lr.rec.kind);
  put_str(out, lr.rec.config);
  put_u64(out, lr.rec.cycles);
  put_u64(out, lr.rec.code_size);
  put_u64(out, lr.rec.instructions);
  put_u32(out, sim::kNumCounters);
  for (unsigned i = 0; i < sim::kNumCounters; ++i)
    put_u64(out, lr.rec.counters.v[i]);
  put_doubles(out, lr.rec.static_features);
  put_doubles(out, lr.rec.dynamic_features);
  return out;
}

std::optional<LogRecord> decode_record(std::string_view payload) {
  if (payload.empty()) return std::nullopt;
  LogRecord lr;
  const auto op = static_cast<std::uint8_t>(payload[0]);
  if (op < static_cast<std::uint8_t>(Op::Append) ||
      op > static_cast<std::uint8_t>(Op::Upsert))
    return std::nullopt;
  lr.op = static_cast<Op>(op);

  Cursor c{payload.data() + 1, payload.size() - 1};
  std::uint32_t ncounters = 0;
  if (!c.str(lr.rec.program) || !c.str(lr.rec.machine) ||
      !c.str(lr.rec.kind) || !c.str(lr.rec.config) || !c.u64(lr.rec.cycles) ||
      !c.u64(lr.rec.code_size) || !c.u64(lr.rec.instructions) ||
      !c.u32(ncounters))
    return std::nullopt;
  if (c.left < std::uint64_t{8} * ncounters) return std::nullopt;
  // Tolerate counter-set growth/shrink across versions: extra stored
  // counters are dropped, missing ones stay zero.
  for (std::uint32_t i = 0; i < ncounters; ++i) {
    std::uint64_t v = 0;
    c.u64(v);
    if (i < sim::kNumCounters) lr.rec.counters.v[i] = v;
  }
  if (!c.doubles(lr.rec.static_features) ||
      !c.doubles(lr.rec.dynamic_features))
    return std::nullopt;
  if (c.left != 0) return std::nullopt;  // trailing garbage = corrupt
  return lr;
}

}  // namespace ilc::kbstore
