// ilc::obs metrics — a process-wide registry of named counters, gauges,
// and fixed-bucket histograms (the paper's Fig. 1 "runtime monitoring"
// module as real infrastructure).
//
// Hot-path cost: a Counter::add is one relaxed fetch_add on a
// cache-line-padded stripe chosen per thread, so concurrent writers never
// share a line; Gauge updates are one relaxed atomic op; Histogram::record
// is three relaxed adds plus two bounded CAS loops (min/max). No locks are
// taken after a handle has been created — registration (name lookup) is
// the only mutex-protected path and is meant to happen once, at startup,
// typically into a function-local static handle.
//
// Snapshots can be taken at any time from any thread and are exportable
// as JSON lines, a single nested JSON object (bench artifacts), or
// Prometheus text exposition.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ilc::obs {

inline constexpr std::size_t kCounterStripes = 16;

namespace detail {

struct alignas(64) Cell {
  std::atomic<std::uint64_t> v{0};
};

/// Stripe of the calling thread: threads are assigned round-robin, so up
/// to kCounterStripes writers update disjoint cache lines.
std::size_t stripe_index();

struct CounterData {
  std::string name;
  std::array<Cell, kCounterStripes> cells;
  std::uint64_t total() const;
};

struct GaugeData {
  std::string name;
  std::atomic<std::int64_t> v{0};
};

struct HistogramData {
  std::string name;
  std::vector<std::uint64_t> bounds;  // inclusive upper bounds, ascending
  std::vector<Cell> buckets;          // bounds.size() + 1 (last = overflow)
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~0ULL};
  std::atomic<std::uint64_t> max{0};
  void record(std::uint64_t v);
};

}  // namespace detail

/// Monotonic counter handle. Cheap to copy; a default-constructed handle
/// is valid and drops every update (useful for optional instrumentation).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const noexcept {
    if (d_ != nullptr)
      d_->cells[detail::stripe_index()].v.fetch_add(
          n, std::memory_order_relaxed);
  }
  void inc() const noexcept { add(1); }
  std::uint64_t value() const { return d_ ? d_->total() : 0; }
  bool valid() const { return d_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterData* d) : d_(d) {}
  detail::CounterData* d_ = nullptr;
};

/// Up/down gauge handle (queue depths, in-flight work).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const noexcept {
    if (d_) d_->v.store(v, std::memory_order_relaxed);
  }
  /// Returns the value after the update (0 for a default handle), so a
  /// gauge can double as an admission count: add, then check the result.
  std::int64_t add(std::int64_t n) const noexcept {
    return d_ ? d_->v.fetch_add(n, std::memory_order_relaxed) + n : 0;
  }
  std::int64_t sub(std::int64_t n) const noexcept { return add(-n); }
  std::int64_t value() const {
    return d_ ? d_->v.load(std::memory_order_relaxed) : 0;
  }
  bool valid() const { return d_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeData* d) : d_(d) {}
  detail::GaugeData* d_ = nullptr;
};

/// Fixed-bucket histogram handle.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) const noexcept {
    if (d_) d_->record(v);
  }
  std::uint64_t count() const {
    return d_ ? d_->count.load(std::memory_order_relaxed) : 0;
  }
  bool valid() const { return d_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramData* d) : d_(d) {}
  detail::HistogramData* d_ = nullptr;
};

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1, last = overflow
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when empty
  std::uint64_t max = 0;

  /// Bucket-interpolated percentile estimate, p in [0, 100]. The result
  /// is clamped to the observed [min, max] and is exact when every value
  /// landed in one bucket. 0 when empty.
  double percentile(double p) const;
  double mean() const { return count ? static_cast<double>(sum) / count : 0; }
};

/// A consistent-enough point-in-time copy: every individual value is an
/// atomic read; counters are monotone between snapshots.
struct RegistrySnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterValue* counter(const std::string& name) const;
  const GaugeValue* gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;
  /// The named value, 0 when nothing by that name is registered.
  std::uint64_t counter_value(const std::string& name) const;
  std::int64_t gauge_value(const std::string& name) const;
};

/// Exponential bucket bounds: start, start*factor, ... (n bounds).
std::vector<std::uint64_t> exponential_bounds(std::uint64_t start,
                                              double factor, std::size_t n);

/// The default microsecond-latency buckets: 1us .. ~9 minutes, powers of 2.
const std::vector<std::uint64_t>& default_us_bounds();

class Registry {
 public:
  /// The process-wide registry used by the subsystem instrumentation
  /// (sim, search, kbstore, controller). Components that need isolated
  /// metrics construct their own: each svc::TuningService and each
  /// net::Server counts into one it owns.
  static Registry& instance();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Handle for the named metric, registering it on first use. Handles
  /// stay valid for the registry's lifetime. For histograms, the bounds
  /// of the first registration win; pass empty for default_us_bounds().
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name,
                      std::vector<std::uint64_t> bounds = {});

  RegistrySnapshot snapshot() const;

 private:
  mutable std::mutex mu_;  // registration + snapshot iteration only
  std::deque<detail::CounterData> counters_;
  std::deque<detail::GaugeData> gauges_;
  std::deque<detail::HistogramData> histograms_;
  std::unordered_map<std::string, detail::CounterData*> counter_names_;
  std::unordered_map<std::string, detail::GaugeData*> gauge_names_;
  std::unordered_map<std::string, detail::HistogramData*> histogram_names_;
};

// ---- exporters -----------------------------------------------------------

/// One JSON object per line: {"type":"counter","name":...,"value":...}.
std::string to_json_lines(const RegistrySnapshot& snap);

/// A single nested JSON object — {"counters":{...},"gauges":{...},
/// "histograms":{...}} — for embedding in bench JSON artifacts.
std::string to_json_object(const RegistrySnapshot& snap);

/// Prometheus text exposition format. Metric names are prefixed and
/// sanitized ("svc.requests" -> "ilc_svc_requests"); histograms emit
/// cumulative _bucket{le=...} series plus _sum and _count.
std::string to_prometheus(const RegistrySnapshot& snap,
                          const std::string& prefix = "ilc");

}  // namespace ilc::obs
