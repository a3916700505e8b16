#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace ilc::obs {

namespace detail {

std::size_t stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
  return idx;
}

std::uint64_t CounterData::total() const {
  std::uint64_t sum = 0;
  for (const Cell& c : cells) sum += c.v.load(std::memory_order_relaxed);
  return sum;
}

void HistogramData::record(std::uint64_t v) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds.begin());
  buckets[idx].v.fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = min.load(std::memory_order_relaxed);
  while (v < cur &&
         !min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max.load(std::memory_order_relaxed);
  while (v > cur &&
         !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

std::vector<std::uint64_t> exponential_bounds(std::uint64_t start,
                                              double factor, std::size_t n) {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(n);
  double v = static_cast<double>(start);
  for (std::size_t i = 0; i < n; ++i) {
    const auto bound = static_cast<std::uint64_t>(v);
    if (!bounds.empty() && bound <= bounds.back()) {
      bounds.push_back(bounds.back() + 1);
    } else {
      bounds.push_back(bound);
    }
    v *= factor;
  }
  return bounds;
}

const std::vector<std::uint64_t>& default_us_bounds() {
  static const std::vector<std::uint64_t> bounds =
      exponential_bounds(1, 2.0, 30);  // 1us .. ~9 minutes
  return bounds;
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < target) continue;
    if (counts[i] == 0) continue;
    // Interpolate within the bucket [lo, hi] by the rank's position in it.
    const double lo = i == 0 ? static_cast<double>(min)
                             : static_cast<double>(bounds[i - 1]) + 1.0;
    const double hi = i < bounds.size() ? static_cast<double>(bounds[i])
                                        : static_cast<double>(max);
    const double into =
        (target - static_cast<double>(cumulative - counts[i])) /
        static_cast<double>(counts[i]);
    const double v = lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
  }
  return static_cast<double>(max);
}

const CounterValue* RegistrySnapshot::counter(const std::string& name) const {
  for (const CounterValue& c : counters)
    if (c.name == name) return &c;
  return nullptr;
}

const GaugeValue* RegistrySnapshot::gauge(const std::string& name) const {
  for (const GaugeValue& g : gauges)
    if (g.name == name) return &g;
  return nullptr;
}

const HistogramSnapshot* RegistrySnapshot::histogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

std::uint64_t RegistrySnapshot::counter_value(const std::string& name) const {
  const CounterValue* c = counter(name);
  return c ? c->value : 0;
}

std::int64_t RegistrySnapshot::gauge_value(const std::string& name) const {
  const GaugeValue* g = gauge(name);
  return g ? g->value : 0;
}

Registry& Registry::instance() {
  static Registry* reg = new Registry();  // never destroyed: instrumented
  return *reg;                            // code may run during exit
}

Counter Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_names_.find(name);
  if (it != counter_names_.end()) return Counter(it->second);
  counters_.emplace_back();
  counters_.back().name = name;
  counter_names_.emplace(name, &counters_.back());
  return Counter(&counters_.back());
}

Gauge Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_names_.find(name);
  if (it != gauge_names_.end()) return Gauge(it->second);
  gauges_.emplace_back();
  gauges_.back().name = name;
  gauge_names_.emplace(name, &gauges_.back());
  return Gauge(&gauges_.back());
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_names_.find(name);
  if (it != histogram_names_.end()) return Histogram(it->second);
  if (bounds.empty()) bounds = default_us_bounds();
  histograms_.emplace_back();
  detail::HistogramData& h = histograms_.back();
  h.name = name;
  h.bounds = std::move(bounds);
  h.buckets = std::vector<detail::Cell>(h.bounds.size() + 1);
  histogram_names_.emplace(name, &h);
  return Histogram(&h);
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  for (const detail::CounterData& c : counters_)
    snap.counters.push_back({c.name, c.total()});
  for (const detail::GaugeData& g : gauges_)
    snap.gauges.push_back({g.name, g.v.load(std::memory_order_relaxed)});
  for (const detail::HistogramData& h : histograms_) {
    HistogramSnapshot hs;
    hs.name = h.name;
    hs.bounds = h.bounds;
    hs.counts.reserve(h.buckets.size());
    for (const detail::Cell& b : h.buckets)
      hs.counts.push_back(b.v.load(std::memory_order_relaxed));
    hs.count = h.count.load(std::memory_order_relaxed);
    hs.sum = h.sum.load(std::memory_order_relaxed);
    const std::uint64_t mn = h.min.load(std::memory_order_relaxed);
    hs.min = mn == ~0ULL ? 0 : mn;
    hs.max = h.max.load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(hs));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

// ---- exporters -----------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << v;
  return os.str();
}

void histogram_json_fields(std::ostringstream& os,
                           const HistogramSnapshot& h) {
  os << "\"count\":" << h.count << ",\"sum\":" << h.sum
     << ",\"min\":" << h.min << ",\"max\":" << h.max
     << ",\"mean\":" << fmt_double(h.mean())
     << ",\"p50\":" << fmt_double(h.percentile(50))
     << ",\"p95\":" << fmt_double(h.percentile(95))
     << ",\"p99\":" << fmt_double(h.percentile(99));
}

/// Prometheus metric name: prefix + sanitized name ('.', '-' -> '_').
std::string prom_name(const std::string& prefix, const std::string& name) {
  std::string out = prefix.empty() ? "" : prefix + "_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string to_json_lines(const RegistrySnapshot& snap) {
  std::ostringstream os;
  for (const CounterValue& c : snap.counters)
    os << "{\"type\":\"counter\",\"name\":\"" << json_escape(c.name)
       << "\",\"value\":" << c.value << "}\n";
  for (const GaugeValue& g : snap.gauges)
    os << "{\"type\":\"gauge\",\"name\":\"" << json_escape(g.name)
       << "\",\"value\":" << g.value << "}\n";
  for (const HistogramSnapshot& h : snap.histograms) {
    os << "{\"type\":\"histogram\",\"name\":\"" << json_escape(h.name)
       << "\",";
    histogram_json_fields(os, h);
    os << "}\n";
  }
  return os.str();
}

std::string to_json_object(const RegistrySnapshot& snap) {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(snap.counters[i].name)
       << "\":" << snap.counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(snap.gauges[i].name)
       << "\":" << snap.gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(snap.histograms[i].name) << "\":{";
    histogram_json_fields(os, snap.histograms[i]);
    os << "}";
  }
  os << "}}";
  return os.str();
}

std::string to_prometheus(const RegistrySnapshot& snap,
                          const std::string& prefix) {
  std::ostringstream os;
  for (const CounterValue& c : snap.counters) {
    const std::string name = prom_name(prefix, c.name);
    os << "# TYPE " << name << " counter\n" << name << " " << c.value << "\n";
  }
  for (const GaugeValue& g : snap.gauges) {
    const std::string name = prom_name(prefix, g.name);
    os << "# TYPE " << name << " gauge\n" << name << " " << g.value << "\n";
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    const std::string name = prom_name(prefix, h.name);
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      os << name << "_bucket{le=\"" << h.bounds[i] << "\"} " << cumulative
         << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << name << "_sum " << h.sum << "\n";
    os << name << "_count " << h.count << "\n";
  }
  return os.str();
}

}  // namespace ilc::obs
