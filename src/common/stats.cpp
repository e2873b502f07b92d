#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace sheriff::common {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel-merge formula.
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nab = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nab;
  mean_ += delta * nb / nab;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double mean(std::span<const double> xs) noexcept {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double variance(std::span<const double> xs) noexcept {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.variance();
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double correlation(std::span<const double> xs, std::span<const double> ys) {
  SHERIFF_REQUIRE(xs.size() == ys.size(), "correlation requires equal sizes");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double quantile(std::span<const double> xs, double q) {
  SHERIFF_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  // 0- and 1-sample inputs short-circuit before the interpolation: the
  // size-1 arithmetic below would otherwise index past the end on an empty
  // span (size()-1 wraps), and a sweep where a metric appears in a single
  // run is a perfectly ordinary aggregation input, not an error.
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs.front();
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  SHERIFF_REQUIRE(hi > lo, "histogram range must be non-empty");
  SHERIFF_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) noexcept {
  const double t = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(t * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::string Histogram::render() const {
  static const char* kBars[] = {" ", "▁", "▂", "▃",
                                "▄", "▅", "▆", "▇", "█"};
  std::size_t peak = 0;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t c : counts_) {
    const std::size_t level = peak == 0 ? 0 : (c * 8 + peak - 1) / peak;
    out += kBars[std::min<std::size_t>(level, 8)];
  }
  return out;
}

}  // namespace sheriff::common
