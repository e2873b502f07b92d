#pragma once
// Dynamic model selection (Sec. IV-B): hold several fitted predictors
// (e.g. two ARIMA orders and two NARNET shapes), score each by its mean
// squared one-step prediction error over a sliding window T_p (Eq. 14),
// and answer every query with the currently-best model's prediction.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "snapshot/fwd.hpp"

namespace sheriff::ts {

/// Common interface over ARIMA and NARNET so the selector can treat them
/// uniformly. Implementations are fitted once on training data and then
/// queried with growing histories.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Fits model parameters on the given training series.
  virtual void fit(std::span<const double> series) = 0;
  /// One-step-ahead prediction of the value following `history`.
  [[nodiscard]] virtual double predict_next(std::span<const double> history) const = 0;
  /// Recursive k-step-ahead forecast.
  [[nodiscard]] virtual std::vector<double> forecast(std::span<const double> history,
                                                     std::size_t horizon) const = 0;
  /// Shortest history length predict_next() accepts.
  [[nodiscard]] virtual std::size_t min_history() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Checkpoint hook: fitted parameters only. A load assumes the target
  /// was constructed with the same shape (order, layer sizes, period);
  /// the selector round-trips candidates positionally.
  virtual void checkpoint(snapshot::Archive& ar) = 0;
};

/// Adapters over the concrete models.
std::unique_ptr<Forecaster> make_arima_forecaster(int p, int d, int q);
std::unique_ptr<Forecaster> make_narnet_forecaster(int inputs, int hidden,
                                                   std::uint64_t seed = 7);
std::unique_ptr<Forecaster> make_holt_winters_forecaster(std::size_t period);
/// Persistence baseline (predicts the last observed value); useful floor.
std::unique_ptr<Forecaster> make_naive_forecaster();

class DynamicModelSelector {
 public:
  /// `window` is T_p of Eq. (14): how many recent one-step errors enter
  /// each model's fitness.
  explicit DynamicModelSelector(std::size_t window = 32);

  /// Adds a candidate (unfitted) model. Call before fit().
  void add_model(std::unique_ptr<Forecaster> model);

  /// Fits all candidates on the training series.
  void fit(std::span<const double> series);

  [[nodiscard]] std::size_t model_count() const noexcept { return models_.size(); }
  [[nodiscard]] std::string model_name(std::size_t i) const;

  /// MSE_f(t, T_p) of model i over the last min(window, observed) errors.
  [[nodiscard]] double fitness(std::size_t i) const;

  /// Index of the model with minimal windowed MSE (ties: first added).
  [[nodiscard]] std::size_t best_model() const;

  /// Predicts the next value with the currently-best model, *then* records
  /// every model's prediction so fitness can be updated when the truth
  /// arrives via observe().
  double predict_next(std::span<const double> history);

  /// Reports the realized value for the most recent predict_next() call.
  void observe(double actual);

  /// Multi-step forecast with the currently-best model; does not record a
  /// pending prediction (read-only with respect to the fitness state).
  [[nodiscard]] std::vector<double> forecast(std::span<const double> history,
                                             std::size_t horizon) const;

  /// How many times each model was selected so far (diagnostics).
  [[nodiscard]] const std::vector<std::size_t>& selection_counts() const noexcept {
    return selection_counts_;
  }

  /// Checkpoint hook: per-candidate fitted parameters + the sliding error
  /// windows and pending predictions that drive best_model(). Candidates
  /// are matched positionally — the target selector must have been built
  /// with the same add_model() sequence.
  void checkpoint(snapshot::Archive& ar);

 private:
  struct Candidate {
    std::unique_ptr<Forecaster> model;
    std::vector<double> recent_sq_errors;  // ring, newest at back
    double pending_prediction = 0.0;
  };

  std::size_t window_;
  std::vector<Candidate> models_;
  std::vector<std::size_t> selection_counts_;
  bool fitted_ = false;
  bool has_pending_ = false;
};

}  // namespace sheriff::ts
