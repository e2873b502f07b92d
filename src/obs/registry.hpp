#pragma once
// Metric registry: named counters, gauges, and fixed-bucket histograms
// that the engine and its subsystems publish into each round. Names follow
// the `subsystem.metric` convention (e.g. "shim.alerts_raised",
// "fair_share.components", "engine.migrations") — see DESIGN.md §8 for
// the catalogue.
//
// Lookup returns stable references (metrics live in deques), so hot call
// sites resolve a metric once and keep the pointer. A registry belongs to
// one engine's hub and is written from that engine's thread only.
//
// Header-only on purpose: sheriff_net and sheriff_fault publish into the
// registry without linking the sheriff_obs library (which sits *above*
// them in the dependency order, because the invariant auditor inspects
// their types).

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace sheriff::obs {

/// Monotonically increasing count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins sample.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: counts of observations <= each upper bound,
/// plus an overflow bucket. Bounds are set at registration and immutable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds)
      : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

  void observe(double v) noexcept {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++counts_[i];
    ++total_;
    sum_ += v;
  }

  [[nodiscard]] std::span<const double> bounds() const noexcept { return bounds_; }
  /// counts()[i] = observations in (bounds[i-1], bounds[i]]; last = overflow.
  [[nodiscard]] std::span<const std::uint64_t> counts() const noexcept { return counts_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Checkpoint restore; returns false (and leaves the histogram untouched)
  /// when `counts` does not match this histogram's bucket layout.
  bool restore(std::vector<std::uint64_t> counts, std::uint64_t total, double sum) {
    if (counts.size() != counts_.size()) return false;
    counts_ = std::move(counts);
    total_ = total;
    sum_ = sum;
    return true;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

class MetricRegistry {
 public:
  /// Finds or creates the counter named `name`. The reference stays valid
  /// for the registry's lifetime.
  Counter& counter(const std::string& name) {
    if (auto it = counters_.find(name); it != counters_.end()) return *it->second;
    counter_storage_.emplace_back();
    counters_.emplace(name, &counter_storage_.back());
    return counter_storage_.back();
  }

  Gauge& gauge(const std::string& name) {
    if (auto it = gauges_.find(name); it != gauges_.end()) return *it->second;
    gauge_storage_.emplace_back();
    gauges_.emplace(name, &gauge_storage_.back());
    return gauge_storage_.back();
  }

  /// Finds or creates a histogram; `upper_bounds` is only consulted on
  /// first registration (must be sorted ascending).
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds) {
    if (auto it = histograms_.find(name); it != histograms_.end()) return *it->second;
    histogram_storage_.emplace_back(std::move(upper_bounds));
    histograms_.emplace(name, &histogram_storage_.back());
    return histogram_storage_.back();
  }

  [[nodiscard]] const Counter* find_counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second;
  }
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second;
  }
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second;
  }

  /// Name-sorted flattened view (histograms contribute `.count` and
  /// `.sum`) — the export/debug surface.
  [[nodiscard]] std::vector<std::pair<std::string, double>> snapshot() const {
    std::vector<std::pair<std::string, double>> out;
    for (const auto& [name, c] : counters_) out.emplace_back(name, static_cast<double>(c->value()));
    for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
    for (const auto& [name, h] : histograms_) {
      out.emplace_back(name + ".count", static_cast<double>(h->total()));
      out.emplace_back(name + ".sum", h->sum());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // --- checkpoint state access ----------------------------------------------
  // Name-sorted iteration (the maps are ordered), so serialized registries
  // are deterministic. Restoring goes through the find-or-create accessors
  // above; these visitors are the save side.
  template <typename F>
  void for_each_counter(F&& f) const {
    for (const auto& [name, c] : counters_) f(name, *c);
  }
  template <typename F>
  void for_each_gauge(F&& f) const {
    for (const auto& [name, g] : gauges_) f(name, *g);
  }
  template <typename F>
  void for_each_histogram(F&& f) const {
    for (const auto& [name, h] : histograms_) f(name, *h);
  }

 private:
  // Deques give stable element addresses; maps give sorted iteration for
  // deterministic export order.
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
};

}  // namespace sheriff::obs
