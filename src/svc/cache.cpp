#include "svc/cache.hpp"

#include <sstream>

namespace ilc::svc {

namespace {

// Record kinds the service owns inside the shared knowledge base.
constexpr const char* kBestKind = "svc-best";
constexpr const char* kBaseKind = "svc-base";

}  // namespace

ResultCache::ResultCache() : store_(kbstore::Store::in_memory()) {}

std::optional<ResultCache> ResultCache::open_durable(const std::string& path,
                                                     kbstore::Options opts) {
  std::shared_ptr<kbstore::Store> store = kbstore::Store::open(path, opts);
  if (!store) return std::nullopt;
  return ResultCache(std::move(store));
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
  return lookup_store(*store_, key, machine);
}

void ResultCache::store(const std::string& key, const std::string& machine,
                        const CachedResult& result) {
  const auto prior = store_->find(key, machine, kBestKind);
  if (prior && prior->cycles <= result.best_metric) return;

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

  store_->upsert(std::move(best));
  store_->upsert(std::move(baseline));
}

bool ResultCache::save(const std::string& path) const {
  return store_->export_kb().save(path);
}

bool ResultCache::sync() const { return store_->sync(); }

std::size_t ResultCache::size() const { return store_->size(); }

}  // namespace ilc::svc
