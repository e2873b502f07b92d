#pragma once
// Descriptive statistics used throughout the evaluation harness:
// Welford running moments, span-based summaries, quantiles, histograms.

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace sheriff::common {

/// Numerically stable running mean/variance (Welford). Value type.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by n). Zero for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean of a span; 0 for empty input.
double mean(std::span<const double> xs) noexcept;
/// Population variance of a span; 0 for fewer than two samples.
double variance(std::span<const double> xs) noexcept;
/// Population standard deviation of a span.
double stddev(std::span<const double> xs) noexcept;
/// Pearson correlation; 0 when either side is constant. Sizes must match.
double correlation(std::span<const double> xs, std::span<const double> ys);
/// Linear-interpolated quantile, q in [0,1]. Input need not be sorted.
/// Degenerate inputs are well-defined instead of tripping the index math:
/// an empty span yields 0.0 (the same convention as mean()), a single
/// sample is every quantile of itself.
double quantile(std::span<const double> xs, double q);

/// Fixed-width histogram over [lo, hi); values outside are clamped into the
/// edge bins. Used by benches to summarize trace distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x) noexcept;
  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// One-line unicode bar rendering ("▁▂▃…"), for bench output.
  [[nodiscard]] std::string render() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace sheriff::common
