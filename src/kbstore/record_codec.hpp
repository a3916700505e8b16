// Binary codec for knowledge-base log records. Every mutation of a
// kbstore::Store is one LogRecord — an operation plus (for writes) a full
// kb::ExperimentRecord — encoded to a byte payload that the log layer
// frames with a length prefix and CRC32 (see log_format.hpp).
//
// The encoding is little-endian and self-delimiting: length-prefixed
// strings and counted arrays, doubles as IEEE-754 bit patterns. decode
// never throws; any truncated, oversized, or trailing-garbage payload
// yields nullopt so the recovery path can treat it as a torn frame.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "kb/knowledge_base.hpp"

namespace ilc::kbstore {

/// What replaying a log record does to the in-memory index.
enum class Op : std::uint8_t {
  Append = 1,  ///< add one more record under the key (duplicates allowed)
  Upsert = 2,  ///< replace the first record under the key, or append
};

struct LogRecord {
  Op op = Op::Append;
  kb::ExperimentRecord rec;
};

std::string encode_record(const LogRecord& lr);
std::optional<LogRecord> decode_record(std::string_view payload);

}  // namespace ilc::kbstore
