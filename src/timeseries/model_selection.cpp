#include "timeseries/model_selection.hpp"

#include <limits>

#include "common/require.hpp"
#include "snapshot/archive.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/holt_winters.hpp"
#include "timeseries/narnet.hpp"

namespace sheriff::ts {

namespace {

class ArimaForecaster final : public Forecaster {
 public:
  ArimaForecaster(int p, int d, int q) : model_(ArimaOrder{p, d, q}) {}

  void fit(std::span<const double> series) override { model_.fit(series); }

  double predict_next(std::span<const double> history) const override {
    return model_.forecast(history, 1).front();
  }

  std::vector<double> forecast(std::span<const double> history,
                               std::size_t horizon) const override {
    return model_.forecast(history, horizon);
  }

  std::size_t min_history() const override {
    const auto& o = model_.order();
    return static_cast<std::size_t>(o.d + std::max(o.p, o.q)) + 2;
  }

  std::string name() const override {
    const auto& o = model_.order();
    return "ARIMA(" + std::to_string(o.p) + "," + std::to_string(o.d) + "," +
           std::to_string(o.q) + ")";
  }

  void checkpoint(snapshot::Archive& ar) override { model_.checkpoint(ar); }

 private:
  ArimaModel model_;
};

class NarnetForecaster final : public Forecaster {
 public:
  NarnetForecaster(int inputs, int hidden, std::uint64_t seed)
      : model_([&] {
          NarNet::Options options;
          options.inputs = inputs;
          options.hidden = hidden;
          options.seed = seed;
          return options;
        }()) {}

  void fit(std::span<const double> series) override { model_.fit(series); }

  double predict_next(std::span<const double> history) const override {
    return model_.predict_next(history);
  }

  std::vector<double> forecast(std::span<const double> history,
                               std::size_t horizon) const override {
    return model_.forecast(history, horizon);
  }

  std::size_t min_history() const override {
    return static_cast<std::size_t>(model_.options().inputs);
  }

  std::string name() const override {
    return "NARNET(" + std::to_string(model_.options().inputs) + "," +
           std::to_string(model_.options().hidden) + ")";
  }

  void checkpoint(snapshot::Archive& ar) override { model_.checkpoint(ar); }

 private:
  NarNet model_;
};

class HoltWintersForecaster final : public Forecaster {
 public:
  explicit HoltWintersForecaster(std::size_t period)
      : model_([&] {
          HoltWintersModel::Options options;
          options.period = period;
          return options;
        }()) {}

  void fit(std::span<const double> series) override { model_.fit(series); }

  double predict_next(std::span<const double> history) const override {
    return model_.predict_next(history);
  }

  std::vector<double> forecast(std::span<const double> history,
                               std::size_t horizon) const override {
    return model_.forecast(history, horizon);
  }

  std::size_t min_history() const override { return 2 * model_.options().period; }

  std::string name() const override {
    return "HoltWinters(" + std::to_string(model_.options().period) + ")";
  }

  void checkpoint(snapshot::Archive& ar) override { model_.checkpoint(ar); }

 private:
  HoltWintersModel model_;
};

class NaiveForecaster final : public Forecaster {
 public:
  void fit(std::span<const double>) override {}

  double predict_next(std::span<const double> history) const override {
    SHERIFF_REQUIRE(!history.empty(), "naive forecaster needs at least one value");
    return history.back();
  }

  std::vector<double> forecast(std::span<const double> history,
                               std::size_t horizon) const override {
    return std::vector<double>(horizon, predict_next(history));
  }

  std::size_t min_history() const override { return 1; }
  std::string name() const override { return "naive"; }

  void checkpoint(snapshot::Archive&) override {}  // stateless
};

}  // namespace

std::unique_ptr<Forecaster> make_arima_forecaster(int p, int d, int q) {
  return std::make_unique<ArimaForecaster>(p, d, q);
}

std::unique_ptr<Forecaster> make_narnet_forecaster(int inputs, int hidden, std::uint64_t seed) {
  return std::make_unique<NarnetForecaster>(inputs, hidden, seed);
}

std::unique_ptr<Forecaster> make_holt_winters_forecaster(std::size_t period) {
  return std::make_unique<HoltWintersForecaster>(period);
}

std::unique_ptr<Forecaster> make_naive_forecaster() { return std::make_unique<NaiveForecaster>(); }

DynamicModelSelector::DynamicModelSelector(std::size_t window) : window_(window) {
  SHERIFF_REQUIRE(window >= 1, "selector window must be positive");
}

void DynamicModelSelector::add_model(std::unique_ptr<Forecaster> model) {
  SHERIFF_REQUIRE(!fitted_, "add_model() after fit()");
  SHERIFF_REQUIRE(model != nullptr, "null model");
  models_.push_back({std::move(model), {}, 0.0});
  selection_counts_.push_back(0);
}

void DynamicModelSelector::fit(std::span<const double> series) {
  SHERIFF_REQUIRE(!models_.empty(), "selector has no candidate models");
  for (auto& candidate : models_) candidate.model->fit(series);
  fitted_ = true;
}

std::string DynamicModelSelector::model_name(std::size_t i) const {
  SHERIFF_REQUIRE(i < models_.size(), "model index out of range");
  return models_[i].model->name();
}

double DynamicModelSelector::fitness(std::size_t i) const {
  SHERIFF_REQUIRE(i < models_.size(), "model index out of range");
  const auto& errors = models_[i].recent_sq_errors;
  if (errors.empty()) return 0.0;  // no evidence yet: all models tie
  double acc = 0.0;
  for (double e : errors) acc += e;
  return acc / static_cast<double>(errors.size());
}

std::size_t DynamicModelSelector::best_model() const {
  SHERIFF_REQUIRE(fitted_, "best_model() before fit()");
  std::size_t best = 0;
  double best_fit = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const double f = fitness(i);
    if (f < best_fit) {
      best_fit = f;
      best = i;
    }
  }
  return best;
}

double DynamicModelSelector::predict_next(std::span<const double> history) {
  SHERIFF_REQUIRE(fitted_, "predict_next() before fit()");
  for (auto& candidate : models_) {
    SHERIFF_REQUIRE(history.size() >= candidate.model->min_history(),
                    "history too short for candidate " + candidate.model->name());
    candidate.pending_prediction = candidate.model->predict_next(history);
  }
  const std::size_t chosen = best_model();
  ++selection_counts_[chosen];
  has_pending_ = true;
  return models_[chosen].pending_prediction;
}

std::vector<double> DynamicModelSelector::forecast(std::span<const double> history,
                                                   std::size_t horizon) const {
  SHERIFF_REQUIRE(fitted_, "forecast() before fit()");
  return models_[best_model()].model->forecast(history, horizon);
}

void DynamicModelSelector::observe(double actual) {
  SHERIFF_REQUIRE(has_pending_, "observe() without a pending prediction");
  for (auto& candidate : models_) {
    const double err = actual - candidate.pending_prediction;
    candidate.recent_sq_errors.push_back(err * err);
    if (candidate.recent_sq_errors.size() > window_) {
      candidate.recent_sq_errors.erase(candidate.recent_sq_errors.begin());
    }
  }
  has_pending_ = false;
}


void DynamicModelSelector::checkpoint(snapshot::Archive& ar) {
  ar.expect_u64(models_.size(), "checkpoint selector does not match this candidate set");
  for (Candidate& candidate : models_) {
    candidate.model->checkpoint(ar);
    ar.f64v(candidate.recent_sq_errors);
    ar.f64(candidate.pending_prediction);
  }
  ar.expect_u64(selection_counts_.size(), "corrupt selector selection counts");
  for (std::size_t& c : selection_counts_) ar.u64(c);
  ar.boolean(fitted_);
  ar.boolean(has_pending_);
}

}  // namespace sheriff::ts
