#include "obs/metrics.h"

#include <algorithm>
#include <bit>

namespace sigma::obs {
namespace {

/// Inclusive value range of bucket i (see HistogramSnapshot).
std::pair<double, double> bucket_range(std::size_t i) {
  if (i == 0) return {0.0, 0.0};
  const double lo = static_cast<double>(1ull << (i - 1));
  return {lo, lo * 2.0 - 1.0};
}

template <typename Snap, typename Less>
void merge_sorted(std::vector<Snap>& into, const std::vector<Snap>& from,
                  Less less, void (*combine)(Snap&, const Snap&)) {
  std::vector<Snap> out;
  out.reserve(into.size() + from.size());
  auto a = into.begin();
  auto b = from.begin();
  while (a != into.end() || b != from.end()) {
    if (b == from.end() || (a != into.end() && less(*a, *b))) {
      out.push_back(std::move(*a++));
    } else if (a == into.end() || less(*b, *a)) {
      out.push_back(*b++);
    } else {
      combine(*a, *b);
      out.push_back(std::move(*a++));
      ++b;
    }
  }
  into = std::move(out);
}

template <typename Snap>
bool name_less(const Snap& a, const Snap& b) {
  return a.name < b.name;
}

}  // namespace

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the target observation (0-based, nearest-rank with
  // interpolation inside the bucket).
  const double rank = p * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double first = static_cast<double>(seen);
    seen += buckets[i];
    if (rank < static_cast<double>(seen)) {
      const auto [lo, hi] = bucket_range(i);
      const double within =
          (rank - first) / static_cast<double>(buckets[i]);
      const double v = lo + (hi - lo) * within;
      return std::clamp(v, static_cast<double>(min),
                        static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

void Histogram::observe(std::uint64_t v) {
  const std::size_t bucket = static_cast<std::size_t>(std::bit_width(v));
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot(const std::string& name) const {
  HistogramSnapshot s;
  s.name = name;
  s.buckets.reserve(kBuckets);
  std::size_t last_nonzero = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    s.buckets.push_back(c);
    s.count += c;
    if (c > 0) last_nonzero = i + 1;
  }
  s.buckets.resize(last_nonzero);
  s.sum = sum_.load(std::memory_order_relaxed);
  const std::uint64_t mn = min_.load(std::memory_order_relaxed);
  s.min = s.count == 0 ? 0 : mn;
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  merge_sorted(counters, other.counters, name_less<CounterSnapshot>,
               +[](CounterSnapshot& a, const CounterSnapshot& b) {
                 a.value += b.value;
               });
  merge_sorted(gauges, other.gauges, name_less<GaugeSnapshot>,
               +[](GaugeSnapshot& a, const GaugeSnapshot& b) {
                 a.value += b.value;
                 a.high_water = std::max(a.high_water, b.high_water);
               });
  merge_sorted(histograms, other.histograms, name_less<HistogramSnapshot>,
               +[](HistogramSnapshot& a, const HistogramSnapshot& b) {
                 if (a.buckets.size() < b.buckets.size()) {
                   a.buckets.resize(b.buckets.size(), 0);
                 }
                 for (std::size_t i = 0; i < b.buckets.size(); ++i) {
                   a.buckets[i] += b.buckets[i];
                 }
                 if (a.count == 0) {
                   a.min = b.min;
                 } else if (b.count > 0) {
                   a.min = std::min(a.min, b.min);
                 }
                 a.max = std::max(a.max, b.max);
                 a.count += b.count;
                 a.sum += b.sum;
               });
}

void MetricsSnapshot::add_counter(const std::string& name,
                                  std::uint64_t value) {
  auto it = std::lower_bound(counters.begin(), counters.end(), name,
                             [](const CounterSnapshot& c,
                                const std::string& n) { return c.name < n; });
  if (it != counters.end() && it->name == name) {
    it->value += value;
  } else {
    counters.insert(it, CounterSnapshot{name, value});
  }
}

void MetricsSnapshot::add_gauge(const std::string& name, std::int64_t value,
                                std::int64_t high_water) {
  auto it = std::lower_bound(gauges.begin(), gauges.end(), name,
                             [](const GaugeSnapshot& g,
                                const std::string& n) { return g.name < n; });
  if (it != gauges.end() && it->name == name) {
    it->value += value;
    it->high_water = std::max(it->high_water, high_water);
  } else {
    gauges.insert(it, GaugeSnapshot{name, value, high_water});
  }
}

const std::uint64_t* MetricsSnapshot::find_counter(
    const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c.value;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Counter& Registry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g->value(), g->high_water()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back(h->snapshot(name));
  }
  return s;
}

std::string metric_prefix(const std::string& family,
                          const std::string& label) {
  return label.empty() ? family + "." : family + "." + label + ".";
}

}  // namespace sigma::obs
