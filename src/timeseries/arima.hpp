#pragma once
// ARIMA(p,d,q) modeling (Sec. IV-B):
//   phi(L) (1-L)^d Y_t = c + theta(L) Z_t,   Z_t ~ WN(0, sigma^2)
//
// Fitting: difference d times, Hannan–Rissanen two-stage least squares for
// a starting point, then Nelder–Mead polish of the conditional sum of
// squares (CSS) under stationarity/invertibility constraints. Forecasting:
// recursive MMSE k-step-ahead (Eq. 12) with future innovations at their
// conditional mean of zero, integrated back to the original scale.

#include <span>
#include <vector>

#include "snapshot/fwd.hpp"

namespace sheriff::ts {

struct ArimaOrder {
  int p = 1;  ///< autoregressive order
  int d = 1;  ///< differencing order
  int q = 1;  ///< moving-average order
};

class ArimaModel {
 public:
  explicit ArimaModel(ArimaOrder order);

  /// Estimates parameters from `series` (original scale). Requires
  /// series.size() > d + 3*max(p,q) + 4 observations.
  void fit(std::span<const double> series);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] ArimaOrder order() const noexcept { return order_; }
  [[nodiscard]] const std::vector<double>& ar_coefficients() const noexcept { return phi_; }
  [[nodiscard]] const std::vector<double>& ma_coefficients() const noexcept { return theta_; }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }
  [[nodiscard]] double innovation_variance() const noexcept { return sigma2_; }

  /// Corrected Akaike information criterion of the fit (lower is better);
  /// used by Box–Jenkins order selection.
  [[nodiscard]] double aicc() const;

  /// MMSE forecasts of the next `horizon` values given `history` (original
  /// scale; may extend the training series). history.size() must exceed
  /// d + max(p,q).
  [[nodiscard]] std::vector<double> forecast(std::span<const double> history,
                                             std::size_t horizon) const;

  /// Forecast with MMSE prediction intervals (the paper's "forecast
  /// range"): the h-step variance is sigma^2 * sum_{j<h} psi_j^2 with
  /// psi the MA(infinity) weights of the ARIMA process (d-integrated).
  struct Interval {
    double mean = 0.0;
    double lower = 0.0;  ///< mean - z * stderr
    double upper = 0.0;  ///< mean + z * stderr
    double stderr_ = 0.0;
  };
  [[nodiscard]] std::vector<Interval> forecast_with_intervals(std::span<const double> history,
                                                              std::size_t horizon,
                                                              double z = 1.96) const;

  /// First `count` psi (MA-infinity) weights of the *differenced* ARMA
  /// process, psi_0 = 1. Exposed for tests.
  [[nodiscard]] std::vector<double> psi_weights(std::size_t count) const;

  /// One-step-ahead predictions Ŷ_t|t-1 for every t in [start,
  /// series.size()): what the fitted model would have predicted for each
  /// point given only earlier data. Used for rolling test evaluation.
  [[nodiscard]] std::vector<double> one_step_predictions(std::span<const double> series,
                                                         std::size_t start) const;

  /// Checkpoint hook: the fitted coefficients (order_ stays with the
  /// constructor). Forecasting is a pure function of these + the history,
  /// so a restored model forecasts bit-identically.
  void checkpoint(snapshot::Archive& ar);

 private:
  /// CSS of params = [c, phi..., theta...] on differenced series `w`.
  /// Fills `residuals` (same length as w; zero-padded warm-up) if non-null.
  [[nodiscard]] double conditional_sum_of_squares(std::span<const double> w,
                                                  std::span<const double> params,
                                                  std::vector<double>* residuals) const;

  ArimaOrder order_;
  std::vector<double> phi_;
  std::vector<double> theta_;
  double intercept_ = 0.0;
  double sigma2_ = 0.0;
  double css_ = 0.0;
  std::size_t effective_n_ = 0;
  bool fitted_ = false;
};

/// True when the lag polynomial 1 - c1 L - ... - cp L^p has all roots
/// outside the unit circle (AR stationarity; applied to -theta for MA
/// invertibility). Exposed for tests.
bool lag_polynomial_is_stable(std::span<const double> coefficients);

}  // namespace sheriff::ts
