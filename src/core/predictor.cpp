#include "core/predictor.hpp"

#include <algorithm>

#include "common/math_util.hpp"
#include "common/require.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::core {

void HoltScalar::checkpoint(snapshot::Archive& ar) {
  ar.f64(level_);
  ar.f64(trend_);
  ar.u64(observations_);
}

HoltProfilePredictor::HoltProfilePredictor(double level_gain, double trend_gain)
    : level_gain_(level_gain), trend_gain_(trend_gain) {
  SHERIFF_REQUIRE(level_gain > 0.0 && level_gain <= 1.0, "level gain must be in (0,1]");
  SHERIFF_REQUIRE(trend_gain >= 0.0 && trend_gain <= 1.0, "trend gain must be in [0,1]");
}

void HoltProfilePredictor::observe(const wl::WorkloadProfile& profile) {
  if (observations_ == 0) {
    level_ = profile.values;
  } else {
    for (std::size_t f = 0; f < wl::kFeatureCount; ++f) {
      HoltScalar::step(level_[f], trend_[f], profile.values[f], level_gain_, trend_gain_);
    }
  }
  ++observations_;
}

wl::WorkloadProfile HoltProfilePredictor::predict(std::size_t horizon) const {
  SHERIFF_REQUIRE(ready(), "predict() before enough observations");
  wl::WorkloadProfile out;
  for (std::size_t f = 0; f < wl::kFeatureCount; ++f) {
    out.values[f] = common::clamp01(level_[f] + static_cast<double>(horizon) * trend_[f]);
  }
  return out;
}

EnsembleProfilePredictor::EnsembleProfilePredictor() : EnsembleProfilePredictor(Options{}) {}

EnsembleProfilePredictor::EnsembleProfilePredictor(Options options) : options_(options) {
  SHERIFF_REQUIRE(options.min_fit >= 40, "ensemble needs >= 40 observations to fit");
  SHERIFF_REQUIRE(options.history >= options.min_fit, "history window below min_fit");
  SHERIFF_REQUIRE(options.refit_interval >= 1, "refit interval must be positive");
}

std::unique_ptr<ts::DynamicModelSelector> EnsembleProfilePredictor::make_selector() const {
  // The paper's four-candidate example: two ARIMA orders and two NARNET
  // shapes, plus the naive floor as a degenerate safety net.
  auto selector = std::make_unique<ts::DynamicModelSelector>(options_.selector_window);
  selector->add_model(ts::make_arima_forecaster(1, 1, 1));
  selector->add_model(ts::make_arima_forecaster(2, 0, 1));
  selector->add_model(ts::make_narnet_forecaster(8, 10, options_.seed));
  selector->add_model(ts::make_narnet_forecaster(4, 20, options_.seed + 1));
  selector->add_model(ts::make_naive_forecaster());
  return selector;
}

void EnsembleProfilePredictor::observe(const wl::WorkloadProfile& profile) {
  for (std::size_t f = 0; f < wl::kFeatureCount; ++f) {
    // Keep the Eq. (14) fitness rolling: score the pending one-step
    // prediction against the arriving truth before storing it.
    if (fitted_) {
      (void)selectors_[f]->predict_next(history_[f]);
      selectors_[f]->observe(profile.values[f]);
    }
    history_[f].push_back(profile.values[f]);
    if (history_[f].size() > options_.history) history_[f].erase(history_[f].begin());
  }
  ++since_refit_;
  const bool due_first = !fitted_ && history_[0].size() >= options_.min_fit;
  const bool due_refit = fitted_ && since_refit_ >= options_.refit_interval;
  if (due_first || due_refit) refit();
}

void EnsembleProfilePredictor::refit() {
  for (std::size_t f = 0; f < wl::kFeatureCount; ++f) {
    auto selector = make_selector();
    selector->fit(history_[f]);
    selectors_[f] = std::move(selector);
  }
  since_refit_ = 0;
  fitted_ = true;
}

wl::WorkloadProfile EnsembleProfilePredictor::predict(std::size_t horizon) const {
  SHERIFF_REQUIRE(fitted_, "predict() before the first fit");
  SHERIFF_REQUIRE(horizon >= 1, "horizon must be at least 1");
  wl::WorkloadProfile out;
  for (std::size_t f = 0; f < wl::kFeatureCount; ++f) {
    const auto path = selectors_[f]->forecast(history_[f], horizon);
    out.values[f] = common::clamp01(path.back());
  }
  return out;
}

std::string EnsembleProfilePredictor::current_model(wl::Feature feature) const {
  SHERIFF_REQUIRE(fitted_, "current_model() before the first fit");
  const auto f = static_cast<std::size_t>(feature);
  return selectors_[f]->model_name(selectors_[f]->best_model());
}

void NaiveProfilePredictor::checkpoint(snapshot::Archive& ar) {
  for (double& v : last_.values) ar.f64(v);
  ar.boolean(seen_);
}

void HoltProfilePredictor::checkpoint(snapshot::Archive& ar) {
  for (std::size_t f = 0; f < wl::kFeatureCount; ++f) {
    ar.f64(level_[f]);
    ar.f64(trend_[f]);
  }
  ar.u64(observations_);
}

void EnsembleProfilePredictor::checkpoint(snapshot::Archive& ar) {
  ar.boolean(fitted_);
  ar.u64(since_refit_);
  for (std::size_t f = 0; f < wl::kFeatureCount; ++f) {
    ar.f64v(history_[f]);
    // Selectors exist only after the first refit; a load rebuilds the
    // candidate set (same shapes and seeds) before restoring its fit.
    if (ar.loading()) selectors_[f] = fitted_ ? make_selector() : nullptr;
    if (fitted_) selectors_[f]->checkpoint(ar);
  }
}

}  // namespace sheriff::core
