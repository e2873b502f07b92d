#include "timeseries/narnet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/require.hpp"
#include "snapshot/archive.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace sheriff::ts {

NarNet::NarNet(Options options) : options_(options) {
  SHERIFF_REQUIRE(options.inputs >= 1, "NARNET needs at least one input lag");
  SHERIFF_REQUIRE(options.hidden >= 1, "NARNET needs at least one hidden unit");
  SHERIFF_REQUIRE(options.validation_fraction > 0.0 && options.validation_fraction < 0.9,
                  "validation fraction out of range");
}

double NarNet::forward(const Weights& w, std::span<const double> window,
                       std::vector<double>* hidden_out) const {
  const auto ni = static_cast<std::size_t>(options_.inputs);
  const auto nh = static_cast<std::size_t>(options_.hidden);
  double out = w.b2;
  if (hidden_out != nullptr) hidden_out->resize(nh);
  for (std::size_t h = 0; h < nh; ++h) {
    double a = w.b1[h];
    for (std::size_t i = 0; i < ni; ++i) a += w.w1[h * ni + i] * window[i];
    const double act = std::tanh(a);
    if (hidden_out != nullptr) (*hidden_out)[h] = act;
    out += w.w2[h] * act;
  }
  return out;
}

void NarNet::fit(std::span<const double> series) {
  const auto ni = static_cast<std::size_t>(options_.inputs);
  const auto nh = static_cast<std::size_t>(options_.hidden);
  SHERIFF_REQUIRE(series.size() >= ni + 8, "series too short for NARNET window");

  // Normalize to zero mean / unit scale for stable training.
  mean_ = common::mean(series);
  scale_ = std::max(common::stddev(series), 1e-9);

  // Sliding-window supervised pairs; window ordering is oldest-first.
  const std::size_t n_pairs = series.size() - ni;
  std::vector<std::vector<double>> inputs(n_pairs, std::vector<double>(ni));
  std::vector<double> targets(n_pairs);
  for (std::size_t t = 0; t < n_pairs; ++t) {
    for (std::size_t i = 0; i < ni; ++i) inputs[t][i] = normalize(series[t + i]);
    targets[t] = normalize(series[t + ni]);
  }

  // Trailing validation split (time-ordered, no leakage).
  const auto n_val = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n_pairs) * options_.validation_fraction));
  const std::size_t n_train = n_pairs - n_val;
  SHERIFF_REQUIRE(n_train >= 4, "too few training windows");

  common::Pcg32 rng(options_.seed);
  Weights w;
  w.w1.resize(nh * ni);
  w.b1.assign(nh, 0.0);
  w.w2.resize(nh);
  const double init_scale1 = 1.0 / std::sqrt(static_cast<double>(ni));
  const double init_scale2 = 1.0 / std::sqrt(static_cast<double>(nh));
  for (double& x : w.w1) x = rng.normal(0.0, init_scale1);
  for (double& x : w.w2) x = rng.normal(0.0, init_scale2);

  // RMSProp accumulators.
  Weights grad = w;
  Weights cache = w;
  const auto zero_out = [](Weights& target) {
    std::fill(target.w1.begin(), target.w1.end(), 0.0);
    std::fill(target.b1.begin(), target.b1.end(), 0.0);
    std::fill(target.w2.begin(), target.w2.end(), 0.0);
    target.b2 = 0.0;
  };
  zero_out(cache);

  const auto validation_loss = [&](const Weights& candidate) {
    double acc = 0.0;
    for (std::size_t t = n_train; t < n_pairs; ++t) {
      const double err = forward(candidate, inputs[t], nullptr) - targets[t];
      acc += err * err;
    }
    return acc / static_cast<double>(n_val);
  };

  Weights best = w;
  double best_val = validation_loss(w);
  int stale_epochs = 0;
  std::vector<std::size_t> order(n_train);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> hidden(nh);

  constexpr double kDecay = 0.9;
  constexpr double kEps = 1e-8;
  const auto batch = static_cast<std::size_t>(std::max(1, options_.batch_size));

  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t begin = 0; begin < n_train; begin += batch) {
      const std::size_t end = std::min(begin + batch, n_train);
      zero_out(grad);
      for (std::size_t bi = begin; bi < end; ++bi) {
        const std::size_t t = order[bi];
        const double pred = forward(w, inputs[t], &hidden);
        const double dl = 2.0 * (pred - targets[t]) / static_cast<double>(end - begin);
        grad.b2 += dl;
        for (std::size_t h = 0; h < nh; ++h) {
          grad.w2[h] += dl * hidden[h];
          const double dh = dl * w.w2[h] * (1.0 - hidden[h] * hidden[h]);
          grad.b1[h] += dh;
          for (std::size_t i = 0; i < ni; ++i) grad.w1[h * ni + i] += dh * inputs[t][i];
        }
      }
      const auto rmsprop_step = [&](double& param, double& cache_cell, double g) {
        g += options_.l2_penalty * param;
        cache_cell = kDecay * cache_cell + (1.0 - kDecay) * g * g;
        param -= options_.learning_rate * g / (std::sqrt(cache_cell) + kEps);
      };
      for (std::size_t k = 0; k < w.w1.size(); ++k) rmsprop_step(w.w1[k], cache.w1[k], grad.w1[k]);
      for (std::size_t k = 0; k < nh; ++k) {
        rmsprop_step(w.b1[k], cache.b1[k], grad.b1[k]);
        rmsprop_step(w.w2[k], cache.w2[k], grad.w2[k]);
      }
      rmsprop_step(w.b2, cache.b2, grad.b2);
    }

    const double val = validation_loss(w);
    if (val < best_val - 1e-12) {
      best_val = val;
      best = w;
      stale_epochs = 0;
    } else if (++stale_epochs > options_.patience) {
      break;
    }
  }

  weights_ = std::move(best);
  validation_mse_ = best_val * scale_ * scale_;  // back to original units
  fitted_ = true;
}

double NarNet::predict_next(std::span<const double> history) const {
  SHERIFF_REQUIRE(fitted_, "predict_next() before fit()");
  const auto ni = static_cast<std::size_t>(options_.inputs);
  SHERIFF_REQUIRE(history.size() >= ni, "history shorter than the input window");
  std::vector<double> window(ni);
  for (std::size_t i = 0; i < ni; ++i) window[i] = normalize(history[history.size() - ni + i]);
  return denormalize(forward(weights_, window, nullptr));
}

std::vector<double> NarNet::forecast(std::span<const double> history, std::size_t horizon) const {
  std::vector<double> extended(history.begin(), history.end());
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double next = predict_next(extended);
    extended.push_back(next);
    out.push_back(next);
  }
  return out;
}

std::vector<double> NarNet::one_step_predictions(std::span<const double> series,
                                                 std::size_t start) const {
  const auto ni = static_cast<std::size_t>(options_.inputs);
  SHERIFF_REQUIRE(start >= ni, "start leaves no input window");
  SHERIFF_REQUIRE(start <= series.size(), "start beyond series end");
  std::vector<double> out;
  out.reserve(series.size() - start);
  for (std::size_t t = start; t < series.size(); ++t) {
    out.push_back(predict_next(series.subspan(0, t)));
  }
  return out;
}


void NarNet::checkpoint(snapshot::Archive& ar) {
  ar.f64v(weights_.w1);
  ar.f64v(weights_.b1);
  ar.f64v(weights_.w2);
  ar.f64(weights_.b2);
  ar.f64(mean_);
  ar.f64(scale_);
  ar.f64(validation_mse_);
  ar.boolean(fitted_);
  // forward() walks the weights by the constructor's shape.
  const auto ni = static_cast<std::size_t>(options_.inputs);
  const auto nh = static_cast<std::size_t>(options_.hidden);
  ar.check(!fitted_ || (weights_.w1.size() == nh * ni && weights_.b1.size() == nh &&
                        weights_.w2.size() == nh),
           "checkpoint NARNET weights do not match this network's shape");
}

}  // namespace sheriff::ts
