// predictor_playground: train the paper's three predictors — ARIMA(1,1,1),
// NARNET(8,20), and the dynamic combined model — on a synthetic weekly
// traffic trace, and compare their rolling one-step test errors, exactly
// the comparison of the paper's Fig. 6–8.
//
//   $ ./predictor_playground [seed]

#include <cstdint>
#include <iostream>
#include <limits>
#include <vector>

#include "cli_args.hpp"
#include "common/ascii_plot.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/box_jenkins.hpp"
#include "timeseries/holt_winters.hpp"
#include "timeseries/model_selection.hpp"
#include "timeseries/narnet.hpp"
#include "workload/trace_generator.hpp"

int main(int argc, char** argv) {
  using namespace sheriff;
  const std::uint64_t seed = examples::positional<std::uint64_t>(
      argc, argv, 1, 5, 0, std::numeric_limits<std::uint64_t>::max(), "[seed]");

  // Two weeks of 30-minute samples; train on week 1, test on week 2.
  auto gen = wl::make_weekly_traffic_trace(seed);
  const auto series = gen->generate(48 * 14);
  const std::size_t split = series.size() / 2;
  const std::vector<double> train(series.begin(),
                                  series.begin() + static_cast<std::ptrdiff_t>(split));
  const std::vector<double> actual(series.begin() + static_cast<std::ptrdiff_t>(split),
                                   series.end());

  std::cout << "weekly traffic trace (" << series.size() << " samples):\n  "
            << common::sparkline(series) << "\n\n";

  // --- ARIMA(1,1,1), the paper's Fig. 6 choice.
  ts::ArimaModel arima(ts::ArimaOrder{1, 1, 1});
  arima.fit(train);
  const auto arima_preds = arima.one_step_predictions(series, split);

  // --- NARNET with 20 hidden units (Fig. 7).
  ts::NarNet::Options nopt;
  nopt.inputs = 12;
  nopt.hidden = 20;
  nopt.seed = seed;
  ts::NarNet narnet(nopt);
  narnet.fit(train);
  const auto narnet_preds = narnet.one_step_predictions(series, split);

  // --- Holt–Winters with a daily season (bonus comparator).
  ts::HoltWintersModel::Options hw_options;
  hw_options.period = 48;
  ts::HoltWintersModel holt_winters(hw_options);
  holt_winters.fit(train);
  std::vector<double> hw_preds;
  for (std::size_t t = split; t < series.size(); ++t) {
    hw_preds.push_back(holt_winters.predict_next(std::span<const double>(series.data(), t)));
  }

  // --- Combined dynamic selector (Fig. 8): four candidates, windowed MSE.
  ts::DynamicModelSelector selector(24);
  selector.add_model(ts::make_arima_forecaster(1, 1, 1));
  selector.add_model(ts::make_arima_forecaster(2, 0, 2));
  selector.add_model(ts::make_narnet_forecaster(12, 20, seed));
  selector.add_model(ts::make_narnet_forecaster(6, 10, seed + 1));
  selector.fit(train);
  std::vector<double> combined_preds;
  std::vector<double> history = train;
  for (std::size_t t = split; t < series.size(); ++t) {
    combined_preds.push_back(selector.predict_next(history));
    selector.observe(series[t]);
    history.push_back(series[t]);
  }

  common::Table table({"model", "test MSE", "test RMSE", "MAPE %"});
  const auto add_row = [&](const std::string& name, const std::vector<double>& preds) {
    table.begin_row()
        .add(name)
        .add(common::mean_squared_error(actual, preds), 3)
        .add(common::root_mean_squared_error(actual, preds), 3)
        .add(common::mean_absolute_percentage_error(actual, preds), 2);
  };
  add_row("ARIMA(1,1,1)", arima_preds);
  add_row("NARNET(12,20)", narnet_preds);
  add_row("HoltWinters(48)", hw_preds);
  add_row("combined (dynamic)", combined_preds);
  table.print(std::cout);

  std::cout << "\nselector usage:";
  for (std::size_t i = 0; i < selector.model_count(); ++i) {
    std::cout << " " << selector.model_name(i) << "=" << selector.selection_counts()[i];
  }
  std::cout << "\n\n";

  common::PlotOptions plot;
  plot.title = "test window: actual vs combined prediction";
  plot.series_names = {"actual", "combined"};
  const std::vector<std::vector<double>> curves{actual, combined_preds};
  std::cout << common::render_plot(curves, plot);

  // Bonus: what would Box–Jenkins pick automatically?
  const auto selection = ts::select_arima(train);
  std::cout << "\nBox-Jenkins automatic order: ARIMA(" << selection.model.order().p << ","
            << selection.model.order().d << "," << selection.model.order().q
            << ") over " << selection.candidates_tried << " candidates\n";
  return 0;
}
