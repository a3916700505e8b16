#include "search/prefix_states.hpp"

#include <functional>

#include "obs/metrics.hpp"

namespace ilc::search {

namespace {

obs::Gauge& g_bytes() {
  static obs::Gauge g =
      obs::Registry::instance().gauge("search.prefix_states.bytes");
  return g;
}

/// Approximate heap bytes of a module: the element storage of its
/// instruction, block, function, record and global vectors, initializers
/// included.
std::size_t footprint(const ir::Module& m) {
  std::size_t b = sizeof(ir::Module);
  for (const ir::Function& fn : m.functions()) {
    b += sizeof(ir::Function) + fn.name.size();
    for (const ir::BasicBlock& bb : fn.blocks)
      b += sizeof(ir::BasicBlock) + bb.insts.size() * sizeof(ir::Instr);
  }
  for (const ir::RecordType& rec : m.records())
    b += sizeof(ir::RecordType) + rec.name.size() +
         rec.fields.size() * sizeof(ir::RecordField);
  for (const ir::Global& g : m.globals()) {
    b += sizeof(ir::Global) + g.name.size() +
         g.init.size() * sizeof(std::int64_t);
    for (const ir::FieldInit& fi : g.field_init)
      b += sizeof(ir::FieldInit) + fi.values.size() * sizeof(std::int64_t);
  }
  return b;
}

}  // namespace

PrefixStates::~PrefixStates() {
  g_bytes().sub(static_cast<std::int64_t>(bytes_));
}

std::pair<std::size_t, std::shared_ptr<const ir::Module>>
PrefixStates::longest_prefix(std::string_view seq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.empty()) return {0, nullptr};
  for (std::size_t len = seq.size(); len-- > 1;) {
    const auto it = map_.find(seq.substr(0, len));
    if (it == map_.end()) continue;
    lru_.splice(lru_.begin(), lru_, it->second);
    return {len, it->second->state};
  }
  return {0, nullptr};
}

void PrefixStates::offer(std::string_view prefix, const ir::Module& state) {
  const std::uint64_t h = std::hash<std::string_view>{}(prefix);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.count(prefix) != 0) return;
    // The slot comes from the low bits, so tagging with bit 0 set keeps
    // the tag exact and never 0 (the empty slot).
    std::uint64_t& seen = sightings_[h % kSightings];
    if (seen != (h | 1)) {
      seen = h | 1;
      return;
    }
  }

  auto copy = std::make_shared<const ir::Module>(state);
  const std::size_t size = footprint(*copy);
  if (size > kCapBytes) return;

  std::lock_guard<std::mutex> lock(mu_);
  // Another worker may have stored the same prefix while this one copied.
  if (map_.count(prefix) != 0) return;
  lru_.push_front(Node{std::string(prefix), std::move(copy), size});
  map_.emplace(lru_.front().key, lru_.begin());
  bytes_ += size;
  std::int64_t delta = static_cast<std::int64_t>(size);
  while (bytes_ > kCapBytes) {
    const Node& victim = lru_.back();
    bytes_ -= victim.bytes;
    delta -= static_cast<std::int64_t>(victim.bytes);
    map_.erase(victim.key);
    lru_.pop_back();
  }
  g_bytes().add(delta);
}

std::size_t PrefixStates::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::size_t PrefixStates::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace ilc::search
