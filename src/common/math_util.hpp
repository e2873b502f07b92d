#pragma once
// Small numeric helpers shared across modules.

#include <cstddef>
#include <span>
#include <vector>

namespace sheriff::common {

/// Clamps x into [0, 1].
double clamp01(double x) noexcept;

/// Linear interpolation between a and b.
double lerp(double a, double b, double t) noexcept;

/// Mean squared error between two equal-length spans. This is Eq. (14)'s
/// fitness metric when applied over a sliding window.
double mean_squared_error(std::span<const double> actual, std::span<const double> predicted);

/// Root of mean_squared_error.
double root_mean_squared_error(std::span<const double> actual, std::span<const double> predicted);

/// Mean absolute error.
double mean_absolute_error(std::span<const double> actual, std::span<const double> predicted);

/// Mean absolute percentage error in percent; entries with |actual| < eps
/// are skipped to avoid division blow-ups.
double mean_absolute_percentage_error(std::span<const double> actual,
                                      std::span<const double> predicted, double eps = 1e-9);

/// Evenly spaced values from lo to hi inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace sheriff::common
