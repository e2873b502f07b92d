#include "timeseries/holt_winters.hpp"

#include <limits>

#include "common/require.hpp"
#include "snapshot/archive.hpp"
#include "common/stats.hpp"

namespace sheriff::ts {

HoltWintersModel::HoltWintersModel(Options options) : options_(options) {
  SHERIFF_REQUIRE(options.period >= 2, "seasonal period must be at least 2");
  for (double gain : {options.level_gain, options.trend_gain, options.season_gain}) {
    SHERIFF_REQUIRE(gain >= 0.0 && gain <= 1.0, "smoothing gains must be in [0,1]");
  }
}

HoltWintersModel::State HoltWintersModel::run(std::span<const double> series,
                                              double* sse) const {
  const std::size_t m = options_.period;
  State state;
  state.season.assign(m, 0.0);

  // Classical initialization from the first two seasons: level = mean of
  // season one, trend = average per-step growth between the seasons,
  // seasonal components = first-season deviations from its mean.
  const double mean1 = common::mean(series.subspan(0, m));
  const double mean2 = common::mean(series.subspan(m, m));
  state.level = mean1;
  state.trend = (mean2 - mean1) / static_cast<double>(m);
  for (std::size_t i = 0; i < m; ++i) state.season[i] = series[i] - mean1;

  double error_acc = 0.0;
  std::size_t error_n = 0;
  for (std::size_t t = m; t < series.size(); ++t) {
    const std::size_t s = t % m;
    const double predicted = state.level + state.trend + state.season[s];
    const double err = series[t] - predicted;
    error_acc += err * err;
    ++error_n;

    const double prev_level = state.level;
    state.level = options_.level_gain * (series[t] - state.season[s]) +
                  (1.0 - options_.level_gain) * (state.level + state.trend);
    state.trend = options_.trend_gain * (state.level - prev_level) +
                  (1.0 - options_.trend_gain) * state.trend;
    state.season[s] = options_.season_gain * (series[t] - state.level) +
                      (1.0 - options_.season_gain) * state.season[s];
  }
  state.t = series.size();
  if (sse != nullptr) *sse = error_n > 0 ? error_acc / static_cast<double>(error_n) : 0.0;
  return state;
}

void HoltWintersModel::fit(std::span<const double> series) {
  SHERIFF_REQUIRE(series.size() >= 2 * options_.period,
                  "Holt-Winters needs at least two full seasons");
  if (options_.tune_gains) {
    double best = std::numeric_limits<double>::infinity();
    Options best_options = options_;
    for (double a : {0.2, 0.4, 0.6}) {
      for (double b : {0.01, 0.05, 0.15}) {
        for (double g : {0.1, 0.3, 0.5}) {
          Options candidate = options_;
          candidate.level_gain = a;
          candidate.trend_gain = b;
          candidate.season_gain = g;
          HoltWintersModel probe(candidate);
          double sse = 0.0;
          (void)probe.run(series, &sse);
          if (sse < best) {
            best = sse;
            best_options = candidate;
          }
        }
      }
    }
    options_ = best_options;
  }
  (void)run(series, &training_mse_);
  fitted_ = true;
}

std::vector<double> HoltWintersModel::forecast(std::span<const double> history,
                                               std::size_t horizon) const {
  SHERIFF_REQUIRE(fitted_, "forecast() before fit()");
  SHERIFF_REQUIRE(history.size() >= 2 * options_.period,
                  "history shorter than two seasons");
  const State state = run(history, nullptr);
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 1; h <= horizon; ++h) {
    const std::size_t s = (state.t + h - 1) % options_.period;
    out.push_back(state.level + static_cast<double>(h) * state.trend + state.season[s]);
  }
  return out;
}

double HoltWintersModel::predict_next(std::span<const double> history) const {
  return forecast(history, 1).front();
}


void HoltWintersModel::checkpoint(snapshot::Archive& ar) {
  ar.f64(options_.level_gain);
  ar.f64(options_.trend_gain);
  ar.f64(options_.season_gain);
  ar.f64(training_mse_);
  ar.boolean(fitted_);
}

}  // namespace sheriff::ts
