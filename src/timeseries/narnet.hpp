#pragma once
// NARNET(ni, nh) — nonlinear autoregressive neural network (Sec. IV-B):
//   Y_t = F(Y_{t-1}, ..., Y_{t-ni}) + eps_t
// realized as a single-hidden-layer tanh MLP with a linear output, trained
// by RMSProp backpropagation on sliding windows with early stopping. This
// is the nonlinear complement to ARIMA in the dynamic model selector.

#include <cstdint>
#include <span>
#include <vector>

#include "snapshot/fwd.hpp"

namespace sheriff::ts {

class NarNet {
 public:
  struct Options {
    int inputs = 8;          ///< ni: autoregressive window length
    int hidden = 20;         ///< nh: hidden units (paper uses 20)
    int max_epochs = 400;
    int batch_size = 16;
    double learning_rate = 5e-3;
    double l2_penalty = 1e-6;
    double validation_fraction = 0.2;  ///< trailing share held out for early stopping
    int patience = 40;                 ///< epochs without val improvement before stop
    std::uint64_t seed = 7;            ///< weight init + batch shuffling
  };

  explicit NarNet(Options options);

  /// Trains on `series` (original scale; the net normalizes internally).
  /// Requires series.size() >= inputs + 8.
  void fit(std::span<const double> series);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// Validation MSE (original scale) reached by the kept weights.
  [[nodiscard]] double validation_mse() const noexcept { return validation_mse_; }

  /// Predicts Y_{t+1} from the last `inputs` values of `history`.
  [[nodiscard]] double predict_next(std::span<const double> history) const;

  /// Recursive multi-step forecast (feeds predictions back as inputs).
  [[nodiscard]] std::vector<double> forecast(std::span<const double> history,
                                             std::size_t horizon) const;

  /// One-step-ahead predictions for every t in [start, series.size()).
  [[nodiscard]] std::vector<double> one_step_predictions(std::span<const double> series,
                                                         std::size_t start) const;

  /// Checkpoint hook: trained weights + input normalization (options stay
  /// with the constructor). Inference is pure, so restores are exact.
  void checkpoint(snapshot::Archive& ar);

 private:
  struct Weights {
    std::vector<double> w1;  ///< hidden x inputs
    std::vector<double> b1;  ///< hidden
    std::vector<double> w2;  ///< hidden
    double b2 = 0.0;
  };

  /// Forward pass on a normalized window (most-recent-last ordering).
  [[nodiscard]] double forward(const Weights& w, std::span<const double> window,
                               std::vector<double>* hidden_out) const;
  [[nodiscard]] double normalize(double y) const noexcept { return (y - mean_) / scale_; }
  [[nodiscard]] double denormalize(double z) const noexcept { return z * scale_ + mean_; }

  Options options_;
  Weights weights_;
  double mean_ = 0.0;
  double scale_ = 1.0;
  double validation_mse_ = 0.0;
  bool fitted_ = false;
};

}  // namespace sheriff::ts
