#include "net/reroute.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace sheriff::net {

RerouteReport reroute_around(Router& router, std::span<Flow> flows, topo::NodeId hot_switch,
                             double fraction) {
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
  // (same results on any platform) needs every reroute decision to be a
  // pure function of the flow set.
  std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
    if (flows[a].demand_gbps != flows[b].demand_gbps) {
      return flows[a].demand_gbps > flows[b].demand_gbps;
    }
    return a < b;
  });
  const auto quota = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(candidates.size())));

  // The old route is copied aside into two buffers every candidate reuses,
  // so the flow keeps its own capacity and a probe allocates nothing.
  const topo::NodeId blocked[] = {hot_switch};
  std::vector<topo::NodeId> saved_path;
  std::vector<topo::LinkId> saved_links;
  for (std::size_t i = 0; i < candidates.size() && report.rerouted < quota; ++i) {
    Flow& flow = flows[candidates[i]];
    saved_path.assign(flow.path.begin(), flow.path.end());
    saved_links.assign(flow.links.begin(), flow.links.end());
    if (router.route(flow, blocked)) {
      ++report.rerouted;
    } else {  // no alternative: keep the old route
      flow.path.assign(saved_path.begin(), saved_path.end());
      flow.links.assign(saved_links.begin(), saved_links.end());
    }
  }
  return report;
}

}  // namespace sheriff::net
