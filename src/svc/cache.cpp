#include "svc/cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace ilc::svc {

namespace {

// Record kinds the service owns inside the shared knowledge base.
constexpr const char* kBestKind = "svc-best";
constexpr const char* kBaseKind = "svc-base";

}  // namespace

std::optional<ResultCache> ResultCache::open(const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return ResultCache();  // no file yet: start empty
  probe.close();
  auto base = kb::KnowledgeBase::load(path);
  if (!base) return std::nullopt;
  return ResultCache(std::move(*base));
}

std::optional<ResultCache> ResultCache::open_durable(
    const std::string& path, kbstore::Options opts,
    kbstore::RecoveryInfo* info) {
  namespace fs = std::filesystem;
  kb::KnowledgeBase legacy;
  bool migrate = false;
  if (fs::is_regular_file(path)) {
    // A legacy CSV knowledge base: parse it, then let the store directory
    // take over the path. An unparsable file is an error, not data loss.
    auto base = kb::KnowledgeBase::load(path);
    if (!base) return std::nullopt;
    legacy = std::move(*base);
    migrate = true;
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) return std::nullopt;
  }
  auto store = kbstore::Store::open(path, opts, info);
  if (!store) return std::nullopt;
  if (migrate && !store->import_records(legacy)) return std::nullopt;
  ResultCache out;
  out.store_ = std::move(store);
  return out;
}

std::string ResultCache::key(std::uint64_t fingerprint,
                             search::Objective objective) {
  std::ostringstream os;
  const char* obj = objective == search::Objective::Cycles    ? "cycles"
                    : objective == search::Objective::CodeSize ? "size"
                                                               : "pareto";
  os << "fp:" << std::hex << fingerprint << std::dec << '+' << obj;
  return os.str();
}

std::optional<CachedResult> ResultCache::lookup_store(
    const kbstore::Store& store, const std::string& key,
    const std::string& machine) {
  const auto best = store.find(key, machine, kBestKind);
  if (!best) return std::nullopt;
  CachedResult out;
  out.config = best->config;
  out.best_metric = best->cycles;
  const auto baseline = store.find(key, machine, kBaseKind);
  out.baseline_metric = baseline ? baseline->cycles : best->cycles;
  return out;
}

std::optional<CachedResult> ResultCache::lookup(
    const std::string& key, const std::string& machine) const {
  if (store_) return lookup_store(*store_, key, machine);
  const kb::ExperimentRecord* best = base_.find(key, machine, kBestKind);
  if (!best) return std::nullopt;
  CachedResult out;
  out.config = best->config;
  out.best_metric = best->cycles;
  const kb::ExperimentRecord* baseline = base_.find(key, machine, kBaseKind);
  out.baseline_metric = baseline ? baseline->cycles : best->cycles;
  return out;
}

void ResultCache::store(const std::string& key, const std::string& machine,
                        const CachedResult& result) {
  if (store_) {
    const auto prior = store_->find(key, machine, kBestKind);
    if (prior && prior->cycles <= result.best_metric) return;
  } else {
    const kb::ExperimentRecord* prior = base_.find(key, machine, kBestKind);
    if (prior && prior->cycles <= result.best_metric) return;
  }

  // The cycles column carries the objective metric (which the key names);
  // that keeps records honest for the default cycles objective and
  // self-describing for code size.
  kb::ExperimentRecord best;
  best.program = key;
  best.machine = machine;
  best.kind = kBestKind;
  best.config = result.config;
  best.cycles = result.best_metric;

  kb::ExperimentRecord baseline;
  baseline.program = key;
  baseline.machine = machine;
  baseline.kind = kBaseKind;
  baseline.cycles = result.baseline_metric;

  if (store_) {
    store_->upsert(std::move(best));
    store_->upsert(std::move(baseline));
  } else {
    base_.upsert(std::move(best));
    base_.upsert(std::move(baseline));
  }
}

bool ResultCache::save(const std::string& path) const {
  return store_ ? store_->export_kb().save(path) : base_.save(path);
}

bool ResultCache::sync() const { return store_ ? store_->sync() : true; }

std::size_t ResultCache::size() const {
  return store_ ? store_->size() : base_.size();
}

}  // namespace ilc::svc
