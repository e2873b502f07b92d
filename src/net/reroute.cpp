#include "net/reroute.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/require.hpp"

namespace sheriff::net {

RerouteReport FlowRerouter::reroute_around(std::span<Flow> flows, topo::NodeId hot_switch,
                                           double fraction) const {
  SHERIFF_REQUIRE(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
  RerouteReport report;

  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].delay_sensitive) continue;
    if (flows[i].transits(hot_switch)) candidates.push_back(i);
  }
  report.candidates = candidates.size();
  if (candidates.empty()) return report;

  // Elephants first: rerouting the biggest flows sheds the most load.
  // Ties break on flow index — equal-demand flows under std::sort alone
  // land in an unspecified order, and the engine's byte-identity guarantee
  // (same results for any manage_shards count, any platform) needs every
  // reroute decision to be a pure function of the flow set.
  std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
    if (flows[a].demand_gbps != flows[b].demand_gbps) {
      return flows[a].demand_gbps > flows[b].demand_gbps;
    }
    return a < b;
  });
  const auto quota = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(candidates.size())));

  const topo::NodeId blocked[] = {hot_switch};
  for (std::size_t i = 0; i < candidates.size() && report.rerouted < quota; ++i) {
    Flow& flow = flows[candidates[i]];
    // Set the old path aside (route() starts from an empty path anyway).
    std::vector<topo::NodeId> saved_path = std::move(flow.path);
    if (router_->route(flow, blocked)) {
      ++report.rerouted;
    } else {
      flow.path = std::move(saved_path);  // no alternative: keep the old path
    }
  }
  return report;
}

}  // namespace sheriff::net
