#include "common/math_util.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace sheriff::common {

double clamp01(double x) noexcept { return std::clamp(x, 0.0, 1.0); }

double lerp(double a, double b, double t) noexcept { return a + (b - a) * t; }

double mean_squared_error(std::span<const double> actual, std::span<const double> predicted) {
  SHERIFF_REQUIRE(actual.size() == predicted.size(), "MSE requires equal sizes");
  if (actual.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double e = actual[i] - predicted[i];
    acc += e * e;
  }
  return acc / static_cast<double>(actual.size());
}

double root_mean_squared_error(std::span<const double> actual, std::span<const double> predicted) {
  return std::sqrt(mean_squared_error(actual, predicted));
}

double mean_absolute_error(std::span<const double> actual, std::span<const double> predicted) {
  SHERIFF_REQUIRE(actual.size() == predicted.size(), "MAE requires equal sizes");
  if (actual.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) acc += std::fabs(actual[i] - predicted[i]);
  return acc / static_cast<double>(actual.size());
}

double mean_absolute_percentage_error(std::span<const double> actual,
                                      std::span<const double> predicted, double eps) {
  SHERIFF_REQUIRE(actual.size() == predicted.size(), "MAPE requires equal sizes");
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::fabs(actual[i]) < eps) continue;
    acc += std::fabs((actual[i] - predicted[i]) / actual[i]);
    ++n;
  }
  return n == 0 ? 0.0 : 100.0 * acc / static_cast<double>(n);
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  SHERIFF_REQUIRE(n >= 2, "linspace needs at least two points");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lerp(lo, hi, static_cast<double>(i) / static_cast<double>(n - 1));
  }
  return out;
}

}  // namespace sheriff::common
