#pragma once
// Synthetic trace generators — the stand-in for the paper's proprietary
// ZopleCloud traces (Fig. 3–5). Each generator produces a streaming time
// series with the qualitative structure the paper's raw data shows:
//
//   * CPU utilization: strong diurnal cycle + AR(1) colored noise
//     (MySQL-style CPU-bound hosts),
//   * disk I/O rate: modest baseline with heavy bursts,
//   * switch traffic: daily cycle modulated by a weekly envelope with
//     regular peaks and troughs.
//
// All randomness is seeded; a generator is a deterministic function of its
// options + seed.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "snapshot/fwd.hpp"

namespace sheriff::wl {

/// Streaming time-series source. Values are in the generator's natural
/// units (percent, MB, ...); callers normalize as needed.
class TraceGenerator {
 public:
  virtual ~TraceGenerator() = default;
  /// Produces the next sample.
  virtual double next() = 0;
  /// Convenience: the next n samples.
  [[nodiscard]] std::vector<double> generate(std::size_t n);
  /// Checkpoint hook: mutable stream state only (RNG position, AR state,
  /// sample clock). Options stay with the constructor — a load assumes
  /// the target was built with the same options and seed.
  virtual void checkpoint(snapshot::Archive& ar) = 0;
};

struct SeasonalTraceOptions {
  double base = 40.0;        ///< mean level
  double amplitude = 25.0;   ///< seasonal swing
  double period = 288.0;     ///< samples per cycle (e.g. 5-min samples/day)
  double phase = 0.0;        ///< cycle offset in samples
  double ar_coefficient = 0.8;   ///< AR(1) noise persistence
  double noise_sigma = 3.0;      ///< innovation std-dev of the noise
  double burst_probability = 0.0;   ///< per-sample chance of a spike
  double burst_magnitude = 0.0;     ///< mean spike height (exponential)
  double floor = 0.0;        ///< clamp lower bound
  double ceiling = 1e18;     ///< clamp upper bound
};

/// base + amplitude * sin(2 pi (t+phase)/period) + AR(1) noise + bursts.
class SeasonalTraceGenerator : public TraceGenerator {
 public:
  SeasonalTraceGenerator(SeasonalTraceOptions options, std::uint64_t seed);
  double next() override;
  void checkpoint(snapshot::Archive& ar) override;

 private:
  SeasonalTraceOptions options_;
  common::Pcg32 rng_;
  double ar_state_ = 0.0;
  std::size_t t_ = 0;
};

/// Weekly switch traffic: daily sinusoid scaled by a 7-day envelope
/// (weekdays heavier than weekends), like the paper's Fig. 5.
class WeeklyTrafficGenerator : public TraceGenerator {
 public:
  struct Options {
    double base_mb = 45.0;
    double daily_amplitude_mb = 30.0;
    double samples_per_day = 48.0;  ///< 30-min samples
    double weekend_factor = 0.55;   ///< weekend scale of the daily swing
    double noise_sigma = 2.5;
    double ar_coefficient = 0.6;
  };
  WeeklyTrafficGenerator(Options options, std::uint64_t seed);
  double next() override;
  void checkpoint(snapshot::Archive& ar) override;

 private:
  Options options_;
  common::Pcg32 rng_;
  double ar_state_ = 0.0;
  std::size_t t_ = 0;
};

/// Factory presets matching Fig. 3 (CPU %), Fig. 4 (disk I/O MB) and
/// Fig. 5 (weekly traffic MB).
std::unique_ptr<TraceGenerator> make_cpu_trace(std::uint64_t seed);
std::unique_ptr<TraceGenerator> make_disk_io_trace(std::uint64_t seed);
std::unique_ptr<TraceGenerator> make_weekly_traffic_trace(std::uint64_t seed);

/// Normalizes a raw trace into [0,1] given the natural full-scale value.
std::vector<double> normalize_trace(const std::vector<double>& raw, double full_scale);

}  // namespace sheriff::wl
