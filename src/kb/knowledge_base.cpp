#include "kb/knowledge_base.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "support/csv.hpp"
#include "support/string_utils.hpp"

namespace ilc::kb {

namespace {

constexpr const char* kHeader = "ilc-kb v1";

std::string join_doubles(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ';';
    os << v[i];
  }
  return os.str();
}

// Malformed knowledge bases must yield nullopt from parse(), never throw
// or crash, so every numeric field goes through these checked helpers.
std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return v;
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::vector<double>> parse_doubles(const std::string& s) {
  std::vector<double> out;
  if (s.empty()) return out;
  for (const std::string& part : support::split(s, ';')) {
    const auto v = parse_double(part);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

std::string join_counters(const sim::Counters& c) {
  std::ostringstream os;
  for (unsigned i = 0; i < sim::kNumCounters; ++i) {
    if (i) os << ';';
    os << c.v[i];
  }
  return os.str();
}

std::optional<sim::Counters> parse_counters(const std::string& s) {
  sim::Counters c;
  if (s.empty()) return c;
  const auto parts = support::split(s, ';');
  for (std::size_t i = 0; i < parts.size() && i < sim::kNumCounters; ++i) {
    const auto v = parse_u64(parts[i]);
    if (!v) return std::nullopt;
    c.v[i] = *v;
  }
  return c;
}

}  // namespace

void KnowledgeBase::add(ExperimentRecord rec) {
  records_.push_back(std::move(rec));
}

std::vector<const ExperimentRecord*> KnowledgeBase::for_program(
    const std::string& program, const std::string& kind) const {
  std::vector<const ExperimentRecord*> out;
  for (const auto& r : records_)
    if (r.program == program && (kind.empty() || r.kind == kind))
      out.push_back(&r);
  return out;
}

const ExperimentRecord* KnowledgeBase::best_for_program(
    const std::string& program, const std::string& kind) const {
  const ExperimentRecord* best = nullptr;
  for (const auto* r : for_program(program, kind))
    if (best == nullptr || r->cycles < best->cycles) best = r;
  return best;
}

std::vector<std::string> KnowledgeBase::programs() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& r : records_)
    if (seen.insert(r.program).second) out.push_back(r.program);
  return out;
}

std::string KnowledgeBase::serialize() const {
  support::CsvWriter w;
  w.row({kHeader});
  w.row({"program", "machine", "kind", "config", "cycles", "code_size",
         "instructions", "counters", "static_features", "dynamic_features"});
  for (const auto& r : records_) {
    w.row({r.program, r.machine, r.kind, r.config, std::to_string(r.cycles),
           std::to_string(r.code_size), std::to_string(r.instructions),
           join_counters(r.counters), join_doubles(r.static_features),
           join_doubles(r.dynamic_features)});
  }
  return w.str();
}

std::optional<KnowledgeBase> KnowledgeBase::parse(const std::string& text) {
  const auto rows = support::parse_csv(text);
  if (rows.size() < 2 || rows[0].empty() || rows[0][0] != kHeader)
    return std::nullopt;
  KnowledgeBase out;
  for (std::size_t i = 2; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() != 10) return std::nullopt;
    ExperimentRecord r;
    r.program = row[0];
    r.machine = row[1];
    r.kind = row[2];
    r.config = row[3];
    const auto cycles = parse_u64(row[4]);
    const auto code_size = parse_u64(row[5]);
    const auto instructions = parse_u64(row[6]);
    const auto counters = parse_counters(row[7]);
    auto static_features = parse_doubles(row[8]);
    auto dynamic_features = parse_doubles(row[9]);
    if (!cycles || !code_size || !instructions || !counters ||
        !static_features || !dynamic_features)
      return std::nullopt;
    r.cycles = *cycles;
    r.code_size = *code_size;
    r.instructions = *instructions;
    r.counters = *counters;
    r.static_features = std::move(*static_features);
    r.dynamic_features = std::move(*dynamic_features);
    out.add(std::move(r));
  }
  return out;
}

bool KnowledgeBase::save(const std::string& path) const {
  // Write-then-rename so a crash mid-save leaves any existing file intact;
  // rename(2) within one directory is atomic.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f << serialize();
    f.flush();
    if (!f) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<KnowledgeBase> KnowledgeBase::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream os;
  os << f.rdbuf();
  return parse(os.str());
}

}  // namespace ilc::kb
