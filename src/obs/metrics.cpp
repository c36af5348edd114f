#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

namespace ecl::obs {

namespace detail {

std::size_t thread_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace detail

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bounds() const {
  std::vector<std::uint64_t> out = bounds_;
  out.push_back(~std::uint64_t{0});
  return out;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

double percentile_from_buckets(const std::vector<std::uint64_t>& bounds,
                               const std::vector<std::uint64_t>& counts, double q,
                               std::uint64_t observed_max) noexcept {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < counts.size() && i < bounds.size(); ++i) n += counts[i];
  if (n == 0) return 0.0;
  // A single sample has exactly one defensible quantile estimate: itself.
  // (Interpolating within its bucket would invent a value no one recorded.)
  if (n == 1) return static_cast<double>(observed_max);
  q = std::max(0.0, std::min(1.0, q));
  const double target = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  std::uint64_t lower = 0;  // exclusive lower edge of the current bucket
  for (std::size_t i = 0; i < counts.size() && i < bounds.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    // The overflow bucket (UINT64_MAX sentinel bound) has no finite upper
    // edge; the observed max is the tightest correct stand-in.
    const std::uint64_t upper = bounds[i] == ~std::uint64_t{0}
                                    ? std::max(observed_max, lower)
                                    : bounds[i];
    if (in_bucket > 0 && cumulative + in_bucket >= target) {
      const double fraction =
          (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      const double estimate =
          static_cast<double>(lower) + fraction * static_cast<double>(upper - lower);
      return std::min(estimate, static_cast<double>(observed_max));
    }
    cumulative += in_bucket;
    lower = upper;
  }
  return static_cast<double>(observed_max);
}

double Histogram::percentile(double q) const noexcept {
  return percentile_from_buckets(bounds(), bucket_counts(), q, max());
}

std::vector<std::uint64_t> Histogram::pow2_bounds(unsigned n) {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(n);
  for (unsigned i = 0; i < n && i < 64; ++i) {
    bounds.push_back(std::uint64_t{1} << i);
  }
  return bounds;
}

struct Registry::Impl {
  mutable std::mutex mu;
  // node-based maps: element addresses are stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry::Impl& Registry::impl() const {
  static Impl instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    it = im.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    it = im.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, std::vector<std::uint64_t> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    it = im.histograms
             .emplace(std::string(name), std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<MetricSnapshot> out;
  out.reserve(im.counters.size() + im.gauges.size() + im.histograms.size());
  for (const auto& [name, c] : im.counters) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.count = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : im.gauges) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : im.histograms) {
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.sum = h->sum();
    s.max = h->max();
    s.value = h->average();
    s.p50 = h->percentile(0.50);
    s.p95 = h->percentile(0.95);
    s.p99 = h->percentile(0.99);
    const auto bounds = h->bounds();
    const auto counts = h->bucket_counts();
    s.buckets.reserve(bounds.size());
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      s.buckets.emplace_back(bounds[i], counts[i]);
      // The count is the total of this one bucket read, so a record()
      // racing the snapshot cannot make _count and the +Inf bucket differ.
      s.count += counts[i];
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.name < b.name; });
  return out;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace ecl::obs
