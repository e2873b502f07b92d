#include "workload/trace_generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/math_util.hpp"
#include "common/require.hpp"
#include "snapshot/rng_io.hpp"

namespace sheriff::wl {

std::vector<double> TraceGenerator::generate(std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(next());
  return out;
}

SeasonalTraceGenerator::SeasonalTraceGenerator(SeasonalTraceOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  SHERIFF_REQUIRE(options.period > 0.0, "seasonal period must be positive");
  SHERIFF_REQUIRE(std::fabs(options.ar_coefficient) < 1.0, "AR(1) coefficient must be stable");
}

double SeasonalTraceGenerator::next() {
  const double phase =
      2.0 * std::numbers::pi * (static_cast<double>(t_) + options_.phase) / options_.period;
  ++t_;
  ar_state_ = options_.ar_coefficient * ar_state_ + rng_.normal(0.0, options_.noise_sigma);
  double value = options_.base + options_.amplitude * std::sin(phase) + ar_state_;
  if (options_.burst_probability > 0.0 && rng_.bernoulli(options_.burst_probability)) {
    value += rng_.exponential(1.0 / std::max(options_.burst_magnitude, 1e-9));
  }
  return std::clamp(value, options_.floor, options_.ceiling);
}

void SeasonalTraceGenerator::checkpoint(snapshot::Archive& ar) {
  snapshot::checkpoint_rng(ar, rng_);
  ar.f64(ar_state_);
  ar.u64(t_);
}

WeeklyTrafficGenerator::WeeklyTrafficGenerator(Options options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  SHERIFF_REQUIRE(options.samples_per_day > 0.0, "samples_per_day must be positive");
}

double WeeklyTrafficGenerator::next() {
  const double day = static_cast<double>(t_) / options_.samples_per_day;
  const int day_of_week = static_cast<int>(day) % 7;
  const bool weekend = day_of_week >= 5;
  const double daily_phase = 2.0 * std::numbers::pi * day;
  ++t_;
  ar_state_ = options_.ar_coefficient * ar_state_ + rng_.normal(0.0, options_.noise_sigma);
  const double swing = weekend ? options_.weekend_factor : 1.0;
  // Shift the sinusoid so traffic troughs at "night" (day fraction 0).
  const double value = options_.base_mb +
                       swing * options_.daily_amplitude_mb * std::sin(daily_phase - 0.5 * std::numbers::pi) +
                       ar_state_;
  return std::max(value, 0.0);
}

void WeeklyTrafficGenerator::checkpoint(snapshot::Archive& ar) {
  snapshot::checkpoint_rng(ar, rng_);
  ar.f64(ar_state_);
  ar.u64(t_);
}

std::unique_ptr<TraceGenerator> make_cpu_trace(std::uint64_t seed) {
  SeasonalTraceOptions options;
  options.base = 45.0;         // percent
  options.amplitude = 28.0;    // day/night swing
  options.period = 288.0;      // 5-min samples, 24 h cycle
  options.ar_coefficient = 0.85;
  options.noise_sigma = 4.0;
  options.burst_probability = 0.01;
  options.burst_magnitude = 15.0;
  options.floor = 0.0;
  options.ceiling = 100.0;
  return std::make_unique<SeasonalTraceGenerator>(options, seed);
}

std::unique_ptr<TraceGenerator> make_disk_io_trace(std::uint64_t seed) {
  SeasonalTraceOptions options;
  options.base = 250.0;        // MB/interval
  options.amplitude = 90.0;
  options.period = 288.0;
  options.ar_coefficient = 0.5;
  options.noise_sigma = 60.0;
  options.burst_probability = 0.06;  // the heavy spikes of Fig. 4
  options.burst_magnitude = 350.0;
  options.floor = 0.0;
  options.ceiling = 1200.0;
  return std::make_unique<SeasonalTraceGenerator>(options, seed);
}

std::unique_ptr<TraceGenerator> make_weekly_traffic_trace(std::uint64_t seed) {
  WeeklyTrafficGenerator::Options options;  // defaults match Fig. 5's shape
  return std::make_unique<WeeklyTrafficGenerator>(options, seed);
}

std::vector<double> normalize_trace(const std::vector<double>& raw, double full_scale) {
  SHERIFF_REQUIRE(full_scale > 0.0, "full scale must be positive");
  std::vector<double> out;
  out.reserve(raw.size());
  for (double v : raw) out.push_back(common::clamp01(v / full_scale));
  return out;
}

}  // namespace sheriff::wl
