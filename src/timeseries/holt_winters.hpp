#pragma once
// Additive Holt–Winters (triple exponential smoothing): level + trend +
// additive seasonality. DCN traffic has strong daily/weekly seasonality
// (Fig. 5), and Holt–Winters is the classical cheap seasonal forecaster —
// a natural extra candidate next to ARIMA and NARNET in the dynamic
// selector.

#include <span>
#include <vector>

#include "snapshot/fwd.hpp"

namespace sheriff::ts {

class HoltWintersModel {
 public:
  struct Options {
    std::size_t period = 48;     ///< samples per season (e.g. one day)
    double level_gain = 0.3;     ///< alpha
    double trend_gain = 0.05;    ///< beta
    double season_gain = 0.2;    ///< gamma
    bool tune_gains = true;      ///< grid-search the gains on the training SSE
  };

  explicit HoltWintersModel(Options options);

  /// Requires at least two full seasons of data.
  void fit(std::span<const double> series);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// Mean squared one-step error on the training pass.
  [[nodiscard]] double training_mse() const noexcept { return training_mse_; }

  /// Forecasts `horizon` values after `history` (the smoothing recursion
  /// is re-run over the given history with the fitted gains).
  [[nodiscard]] std::vector<double> forecast(std::span<const double> history,
                                             std::size_t horizon) const;
  [[nodiscard]] double predict_next(std::span<const double> history) const;

  /// Checkpoint hook: the (possibly grid-tuned) gains + fit flag. The
  /// forecast recursion re-runs over the caller's history, so no smoothing
  /// state needs to survive.
  void checkpoint(snapshot::Archive& ar);

 private:
  struct State {
    double level = 0.0;
    double trend = 0.0;
    std::vector<double> season;
    std::size_t t = 0;  ///< samples consumed
  };

  /// Runs the smoothing pass; returns the final state and optionally the
  /// accumulated one-step squared error.
  [[nodiscard]] State run(std::span<const double> series, double* sse) const;

  Options options_;
  double training_mse_ = 0.0;
  bool fitted_ = false;
};

}  // namespace sheriff::ts
