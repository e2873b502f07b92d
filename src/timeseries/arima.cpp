#include "timeseries/arima.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "snapshot/archive.hpp"
#include "timeseries/optimize.hpp"
#include "timeseries/series_ops.hpp"

namespace sheriff::ts {

namespace {

/// Solves A x = b by Gaussian elimination with partial pivoting. A is
/// n x n row-major and clobbered. Returns false if (near-)singular.
bool solve_linear_system(std::vector<double>& a, std::vector<double>& b, std::size_t n) {
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) pivot = r;
    }
    if (std::fabs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[pivot * n + c], a[col * n + c]);
      std::swap(b[pivot], b[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] / a[col * n + col];
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  for (std::size_t row = n; row > 0; --row) {
    const std::size_t r = row - 1;
    double acc = b[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= a[r * n + c] * b[c];
    b[r] = acc / a[r * n + r];
  }
  return true;
}

/// Ordinary least squares of y on the rows of X (n_obs x n_vars).
/// Returns empty on singular normal equations.
std::vector<double> ols(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
  const std::size_t n_obs = x.size();
  if (n_obs == 0) return {};
  const std::size_t n_vars = x.front().size();
  std::vector<double> xtx(n_vars * n_vars, 0.0);
  std::vector<double> xty(n_vars, 0.0);
  for (std::size_t i = 0; i < n_obs; ++i) {
    for (std::size_t a = 0; a < n_vars; ++a) {
      xty[a] += x[i][a] * y[i];
      for (std::size_t b = a; b < n_vars; ++b) xtx[a * n_vars + b] += x[i][a] * x[i][b];
    }
  }
  for (std::size_t a = 0; a < n_vars; ++a) {
    for (std::size_t b = 0; b < a; ++b) xtx[a * n_vars + b] = xtx[b * n_vars + a];
  }
  // Ridge epsilon keeps near-collinear regressors from exploding.
  for (std::size_t a = 0; a < n_vars; ++a) xtx[a * n_vars + a] += 1e-8;
  if (!solve_linear_system(xtx, xty, n_vars)) return {};
  return xty;
}

}  // namespace

bool lag_polynomial_is_stable(std::span<const double> coefficients) {
  const std::size_t p = coefficients.size();
  if (p == 0) return true;
  // Exact conditions for the common small orders.
  if (p == 1) return std::fabs(coefficients[0]) < 1.0;
  if (p == 2) {
    const double c1 = coefficients[0];
    const double c2 = coefficients[1];
    return std::fabs(c2) < 1.0 && c2 + c1 < 1.0 && c2 - c1 < 1.0;
  }
  // General case: spectral radius of the companion matrix of the recursion
  // x_t = c1 x_{t-1} + ... + cp x_{t-p}, estimated by iterated powers.
  std::vector<double> state(p, 0.0);
  state[0] = 1.0;
  double growth = 0.0;
  constexpr int kIterations = 200;
  for (int it = 0; it < kIterations; ++it) {
    double next = 0.0;
    for (std::size_t j = 0; j < p; ++j) next += coefficients[j] * state[j];
    for (std::size_t j = p - 1; j > 0; --j) state[j] = state[j - 1];
    state[0] = next;
    double norm = 0.0;
    for (double s : state) norm = std::max(norm, std::fabs(s));
    if (norm > 1e100) return false;  // clearly explosive
    if (norm < 1e-100) return true;  // clearly contracting
    growth = norm;
  }
  return std::pow(growth, 1.0 / kIterations) < 1.0;
}

ArimaModel::ArimaModel(ArimaOrder order) : order_(order) {
  SHERIFF_REQUIRE(order.p >= 0 && order.d >= 0 && order.q >= 0, "negative ARIMA order");
  SHERIFF_REQUIRE(order.p + order.q >= 0 && order.p <= 12 && order.q <= 12 && order.d <= 3,
                  "ARIMA order out of supported range");
}

double ArimaModel::conditional_sum_of_squares(std::span<const double> w,
                                              std::span<const double> params,
                                              std::vector<double>* residuals) const {
  const auto p = static_cast<std::size_t>(order_.p);
  const auto q = static_cast<std::size_t>(order_.q);
  const double c = params[0];
  const std::span<const double> phi = params.subspan(1, p);
  const std::span<const double> theta = params.subspan(1 + p, q);

  if (!lag_polynomial_is_stable(phi)) return std::numeric_limits<double>::infinity();
  if (!lag_polynomial_is_stable(theta)) return std::numeric_limits<double>::infinity();

  std::vector<double> e(w.size(), 0.0);
  const std::size_t start = std::max(p, q);
  double css = 0.0;
  for (std::size_t t = start; t < w.size(); ++t) {
    double pred = c;
    for (std::size_t i = 0; i < p; ++i) pred += phi[i] * w[t - 1 - i];
    for (std::size_t j = 0; j < q; ++j) pred += theta[j] * e[t - 1 - j];
    e[t] = w[t] - pred;
    css += e[t] * e[t];
  }
  if (residuals != nullptr) *residuals = std::move(e);
  return css;
}

void ArimaModel::fit(std::span<const double> series) {
  const auto p = static_cast<std::size_t>(order_.p);
  const auto q = static_cast<std::size_t>(order_.q);
  const auto d = order_.d;
  const std::size_t min_len = static_cast<std::size_t>(d) + 3 * std::max(p, q) + 5;
  SHERIFF_REQUIRE(series.size() >= min_len, "series too short for this ARIMA order");

  const std::vector<double> w = difference(series, d);

  // --- Stage 1 (Hannan–Rissanen): long-AR residuals as innovation proxies.
  const std::size_t long_ar = std::min<std::size_t>(
      std::max<std::size_t>(p + q + 2, 4), w.size() / 3);
  std::vector<double> proxy_resid(w.size(), 0.0);
  {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (std::size_t t = long_ar; t < w.size(); ++t) {
      std::vector<double> row(long_ar + 1, 1.0);
      for (std::size_t i = 0; i < long_ar; ++i) row[i + 1] = w[t - 1 - i];
      x.push_back(std::move(row));
      y.push_back(w[t]);
    }
    const auto beta = ols(x, y);
    if (!beta.empty()) {
      for (std::size_t t = long_ar; t < w.size(); ++t) {
        double pred = beta[0];
        for (std::size_t i = 0; i < long_ar; ++i) pred += beta[i + 1] * w[t - 1 - i];
        proxy_resid[t] = w[t] - pred;
      }
    }
  }

  // --- Stage 2: regress w_t on its own lags and lagged proxy residuals.
  std::vector<double> params(1 + p + q, 0.0);
  {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    const std::size_t start = std::max({p, q, long_ar});
    for (std::size_t t = start; t < w.size(); ++t) {
      std::vector<double> row(1 + p + q);
      row[0] = 1.0;
      for (std::size_t i = 0; i < p; ++i) row[1 + i] = w[t - 1 - i];
      for (std::size_t j = 0; j < q; ++j) row[1 + p + j] = proxy_resid[t - 1 - j];
      x.push_back(std::move(row));
      y.push_back(w[t]);
    }
    auto beta = ols(x, y);
    if (beta.size() == params.size()) params = std::move(beta);
    // Fall back inside the feasible region if the start point is unstable.
    if (!std::isfinite(conditional_sum_of_squares(w, params, nullptr))) {
      std::fill(params.begin(), params.end(), 0.0);
      params[0] = common::mean(w);
      if (p > 0) params[1] = 0.3;
      if (q > 0) params[1 + p] = 0.3;
    }
  }

  // --- Stage 3: polish on the CSS surface.
  if (p + q > 0) {
    NelderMeadOptions options;
    options.max_iterations = 600;
    options.initial_step = 0.05;
    const auto objective = [&](const std::vector<double>& candidate) {
      return conditional_sum_of_squares(w, candidate, nullptr);
    };
    const auto polished = nelder_mead(objective, params, options);
    if (std::isfinite(polished.value)) params = polished.x;
  } else {
    params[0] = common::mean(w);
  }

  std::vector<double> residuals;
  css_ = conditional_sum_of_squares(w, params, &residuals);
  SHERIFF_REQUIRE(std::isfinite(css_), "ARIMA fit failed to find a stable model");

  intercept_ = params[0];
  phi_.assign(params.begin() + 1, params.begin() + 1 + static_cast<std::ptrdiff_t>(p));
  theta_.assign(params.begin() + 1 + static_cast<std::ptrdiff_t>(p), params.end());
  effective_n_ = w.size() - std::max(p, q);
  sigma2_ = effective_n_ > 0 ? css_ / static_cast<double>(effective_n_) : 0.0;
  fitted_ = true;
}

double ArimaModel::aicc() const {
  SHERIFF_REQUIRE(fitted_, "aicc() before fit()");
  const auto n = static_cast<double>(effective_n_);
  const auto k = static_cast<double>(order_.p + order_.q + 2);  // + intercept + sigma
  const double sigma2 = std::max(sigma2_, 1e-300);
  double aic = n * std::log(sigma2) + 2.0 * k;
  if (n - k - 1.0 > 0.0) aic += 2.0 * k * (k + 1.0) / (n - k - 1.0);
  return aic;
}

std::vector<double> ArimaModel::forecast(std::span<const double> history,
                                         std::size_t horizon) const {
  SHERIFF_REQUIRE(fitted_, "forecast() before fit()");
  const auto p = static_cast<std::size_t>(order_.p);
  const auto q = static_cast<std::size_t>(order_.q);
  const auto d = order_.d;
  SHERIFF_REQUIRE(history.size() > static_cast<std::size_t>(d) + std::max(p, q),
                  "history too short to forecast from");
  if (horizon == 0) return {};

  std::vector<double> w = difference(history, d);

  // Innovations over the provided history.
  std::vector<double> params;
  params.reserve(1 + p + q);
  params.push_back(intercept_);
  params.insert(params.end(), phi_.begin(), phi_.end());
  params.insert(params.end(), theta_.begin(), theta_.end());
  std::vector<double> e;
  (void)conditional_sum_of_squares(w, params, &e);

  // Recursive conditional-mean forecasts in differenced space; future
  // innovations enter at their mean (zero).
  for (std::size_t h = 0; h < horizon; ++h) {
    const std::size_t t = w.size();
    double pred = intercept_;
    for (std::size_t i = 0; i < p; ++i) pred += phi_[i] * w[t - 1 - i];
    for (std::size_t j = 0; j < q; ++j) {
      const std::size_t idx = t - 1 - j;
      pred += theta_[j] * (idx < e.size() ? e[idx] : 0.0);
    }
    w.push_back(pred);
  }

  const std::vector<double> increments(w.end() - static_cast<std::ptrdiff_t>(horizon), w.end());
  const std::span<const double> tail =
      history.subspan(history.size() - static_cast<std::size_t>(d));
  return integrate(increments, tail, d);
}

std::vector<double> ArimaModel::psi_weights(std::size_t count) const {
  SHERIFF_REQUIRE(fitted_, "psi_weights() before fit()");
  const std::size_t p = phi_.size();
  const std::size_t q = theta_.size();
  // psi_j = theta_j + sum_{i<=min(j,p)} phi_i psi_{j-i}, theta_0 = 1.
  std::vector<double> psi(count, 0.0);
  if (count == 0) return psi;
  psi[0] = 1.0;
  for (std::size_t j = 1; j < count; ++j) {
    double value = j <= q ? theta_[j - 1] : 0.0;
    for (std::size_t i = 1; i <= std::min(j, p); ++i) value += phi_[i - 1] * psi[j - i];
    psi[j] = value;
  }
  return psi;
}

std::vector<ArimaModel::Interval> ArimaModel::forecast_with_intervals(
    std::span<const double> history, std::size_t horizon, double z) const {
  const auto means = forecast(history, horizon);
  const auto psi = psi_weights(horizon);

  // The forecast-error process of the d-integrated series has MA weights
  // equal to the cumulative sums of psi, applied d times.
  std::vector<double> weights = psi;
  for (int round = 0; round < order_.d; ++round) {
    for (std::size_t j = 1; j < weights.size(); ++j) weights[j] += weights[j - 1];
  }

  std::vector<Interval> out(horizon);
  double var = 0.0;
  for (std::size_t h = 0; h < horizon; ++h) {
    var += weights[h] * weights[h] * sigma2_;
    const double se = std::sqrt(var);
    out[h].mean = means[h];
    out[h].stderr_ = se;
    out[h].lower = means[h] - z * se;
    out[h].upper = means[h] + z * se;
  }
  return out;
}

std::vector<double> ArimaModel::one_step_predictions(std::span<const double> series,
                                                     std::size_t start) const {
  SHERIFF_REQUIRE(fitted_, "one_step_predictions() before fit()");
  const auto p = static_cast<std::size_t>(order_.p);
  const auto q = static_cast<std::size_t>(order_.q);
  const auto d = static_cast<std::size_t>(order_.d);
  SHERIFF_REQUIRE(start > d + std::max(p, q), "start leaves no warm-up room");
  SHERIFF_REQUIRE(start <= series.size(), "start beyond series end");

  const std::vector<double> w = difference(series, order_.d);
  std::vector<double> params;
  params.reserve(1 + p + q);
  params.push_back(intercept_);
  params.insert(params.end(), phi_.begin(), phi_.end());
  params.insert(params.end(), theta_.begin(), theta_.end());
  std::vector<double> e;
  (void)conditional_sum_of_squares(w, params, &e);

  // Differencing is linear, so the only unknown in Y_t given the past is
  // the innovation: Ŷ_t|t-1 = Y_t - e_{t-d} (w index is offset by d).
  std::vector<double> out;
  out.reserve(series.size() - start);
  for (std::size_t t = start; t < series.size(); ++t) out.push_back(series[t] - e[t - d]);
  return out;
}


void ArimaModel::checkpoint(snapshot::Archive& ar) {
  ar.f64v(phi_);
  ar.f64v(theta_);
  ar.f64(intercept_);
  ar.f64(sigma2_);
  ar.f64(css_);
  ar.u64(effective_n_);
  ar.boolean(fitted_);
  // forecast() runs the recursion over order_, not over the vectors.
  ar.check(!fitted_ || (phi_.size() == static_cast<std::size_t>(order_.p) &&
                        theta_.size() == static_cast<std::size_t>(order_.q)),
           "checkpoint ARIMA coefficients do not match this model's order");
}

}  // namespace sheriff::ts
