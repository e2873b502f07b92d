#pragma once
// Per-VM workload prediction (Sec. IV). Two implementations share one
// interface:
//
//  * HoltProfilePredictor — double exponential smoothing (level + trend)
//    per profile feature. O(1) per observation, which is what the engine
//    uses when it drives thousands of VMs.
//  * EnsembleProfilePredictor — the paper's full machinery: a dynamic
//    ARIMA + NARNET model selector per feature, refitted periodically on
//    the VM's history window. Used by the examples, the prediction
//    experiments, and small-scale engine runs.
//
// Both consume one observation per tick and answer T-steps-ahead profile
// predictions.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "snapshot/fwd.hpp"
#include "timeseries/model_selection.hpp"
#include "workload/profile.hpp"

namespace sheriff::core {

/// Predicts the full workload profile h steps ahead.
class ProfilePredictor {
 public:
  virtual ~ProfilePredictor() = default;
  /// Feeds the current measured profile.
  virtual void observe(const wl::WorkloadProfile& profile) = 0;
  /// T-steps-ahead prediction (components clamped to [0,1]).
  [[nodiscard]] virtual wl::WorkloadProfile predict(std::size_t horizon) const = 0;
  /// True once enough history has accumulated to predict.
  [[nodiscard]] virtual bool ready() const = 0;
  /// Checkpoint hook: the observation-driven state (histories, smoothing
  /// state, fitted models). A load assumes a same-options target.
  virtual void checkpoint(snapshot::Archive& ar) = 0;
};

/// Scalar Holt smoothing (level + trend) for single signals like a ToR's
/// uplink utilization or queue length (Sec. IV-A: shims predict the future
/// queue length of their ToR from its history).
class HoltScalar {
 public:
  explicit HoltScalar(double level_gain = 0.5, double trend_gain = 0.2) noexcept
      : level_gain_(level_gain), trend_gain_(trend_gain) {}

  void observe(double x) noexcept {
    if (observations_ == 0) {
      level_ = x;
    } else {
      step(level_, trend_, x, level_gain_, trend_gain_);
    }
    ++observations_;
  }

  /// The Holt recursion after the first observation: the level moves
  /// toward `x`, the trend toward the level's change.
  static void step(double& level, double& trend, double x, double level_gain,
                   double trend_gain) noexcept {
    const double prev = level;
    level = level_gain * x + (1.0 - level_gain) * (level + trend);
    trend = trend_gain * (level - prev) + (1.0 - trend_gain) * trend;
  }

  [[nodiscard]] bool ready() const noexcept { return observations_ >= 2; }
  /// Extrapolated value `horizon` steps ahead (last value before ready()).
  [[nodiscard]] double predict(std::size_t horizon) const noexcept {
    return ready() ? level_ + static_cast<double>(horizon) * trend_ : level_;
  }

  /// Checkpoint hook: level, trend, observation count (the gains stay
  /// with the constructor).
  void checkpoint(snapshot::Archive& ar);

 private:
  double level_gain_;
  double trend_gain_;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::size_t observations_ = 0;
};

/// No real prediction: reports the last observed profile. This is the
/// "contingency" baseline — management reacts only to what already
/// happened — used by the predictor ablation bench.
class NaiveProfilePredictor final : public ProfilePredictor {
 public:
  void observe(const wl::WorkloadProfile& profile) override {
    last_ = profile;
    seen_ = true;
  }
  [[nodiscard]] wl::WorkloadProfile predict(std::size_t /*horizon*/) const override {
    return last_;
  }
  [[nodiscard]] bool ready() const override { return seen_; }
  void checkpoint(snapshot::Archive& ar) override;

 private:
  wl::WorkloadProfile last_;
  bool seen_ = false;
};

/// Holt's linear (double exponential) smoothing per feature, all fed in
/// lockstep through HoltScalar::step. The features keep flat level and
/// trend arrays and share one observation count and one pair of gains:
/// the engine runs this for every VM every round, and a HoltScalar per
/// feature measured slower there.
class HoltProfilePredictor final : public ProfilePredictor {
 public:
  /// `level_gain`/`trend_gain` are the classic alpha/beta smoothing gains.
  explicit HoltProfilePredictor(double level_gain = 0.5, double trend_gain = 0.2);

  void observe(const wl::WorkloadProfile& profile) override;
  [[nodiscard]] wl::WorkloadProfile predict(std::size_t horizon) const override;
  [[nodiscard]] bool ready() const override { return observations_ >= 2; }
  /// Per feature its level and trend, then the observation count.
  void checkpoint(snapshot::Archive& ar) override;

 private:
  double level_gain_;
  double trend_gain_;
  std::array<double, wl::kFeatureCount> level_{};
  std::array<double, wl::kFeatureCount> trend_{};
  std::size_t observations_ = 0;
};

/// The full dynamic ARIMA+NARNET ensemble of Sec. IV-B, one selector per
/// feature, refitted every `refit_interval` observations on a sliding
/// history window.
class EnsembleProfilePredictor final : public ProfilePredictor {
 public:
  struct Options {
    std::size_t history = 128;        ///< window kept per feature
    std::size_t min_fit = 48;         ///< observations before the first fit
    std::size_t refit_interval = 32;  ///< observations between refits
    std::size_t selector_window = 16; ///< T_p of Eq. (14)
    std::uint64_t seed = 11;          ///< NARNET initialization
  };

  EnsembleProfilePredictor();
  explicit EnsembleProfilePredictor(Options options);

  void observe(const wl::WorkloadProfile& profile) override;
  [[nodiscard]] wl::WorkloadProfile predict(std::size_t horizon) const override;
  [[nodiscard]] bool ready() const override { return fitted_; }

  /// Which model the selector currently favors for a feature (diagnostics).
  [[nodiscard]] std::string current_model(wl::Feature feature) const;

  void checkpoint(snapshot::Archive& ar) override;

 private:
  void refit();
  [[nodiscard]] std::unique_ptr<ts::DynamicModelSelector> make_selector() const;

  Options options_;
  std::array<std::vector<double>, wl::kFeatureCount> history_;
  std::array<std::unique_ptr<ts::DynamicModelSelector>, wl::kFeatureCount> selectors_;
  std::size_t since_refit_ = 0;
  bool fitted_ = false;
};

}  // namespace sheriff::core
