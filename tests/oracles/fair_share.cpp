#include "oracles/fair_share.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/require.hpp"

namespace sheriff::oracle {

using net::FairShareResult;
using net::Flow;

namespace {
constexpr double kEps = 1e-12;
}  // namespace

FairShareResult max_min_fair_share(const topo::Topology& topo, std::span<Flow> flows,
                                   const topo::LivenessMask* liveness) {
  if (liveness != nullptr && liveness->all_up()) liveness = nullptr;
  FairShareResult result;
  result.flow_rate.assign(flows.size(), 0.0);
  result.link_load_gbps.assign(topo.link_count(), 0.0);
  result.link_offered_gbps.assign(topo.link_count(), 0.0);
  result.link_utilization.assign(topo.link_count(), 0.0);

  // Resolve each flow's path into link ids once.
  std::vector<std::vector<topo::LinkId>> flow_links(flows.size());
  std::vector<std::vector<std::size_t>> link_flows(topo.link_count());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (!flows[f].routed() || flows[f].effective_demand() <= 0.0) continue;
    const auto& path = flows[f].path;
    bool path_live = true;
    for (std::size_t i = 0; path_live && i + 1 < path.size(); ++i) {
      const topo::LinkId l = topo.link_between(path[i], path[i + 1]);
      path_live = liveness == nullptr || liveness->link_usable(topo, l);
      flow_links[f].push_back(l);
    }
    if (!path_live) {
      flow_links[f].clear();
      continue;
    }
    for (topo::LinkId l : flow_links[f]) {
      link_flows[l].push_back(f);
      result.link_offered_gbps[l] += flows[f].effective_demand();
    }
  }

  std::vector<double> available(topo.link_count());
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    available[l] = topo.link(l).capacity_gbps;
  }
  std::vector<std::size_t> active_on_link(topo.link_count(), 0);
  std::vector<bool> active(flows.size(), false);
  std::size_t n_active = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (!flow_links[f].empty()) {
      active[f] = true;
      ++n_active;
      for (topo::LinkId l : flow_links[f]) ++active_on_link[l];
    }
  }

  // Progressive filling: raise all active rates together until either some
  // link saturates or some flow reaches its demand, freeze, repeat.
  while (n_active > 0) {
    double increment = std::numeric_limits<double>::infinity();
    for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
      if (active_on_link[l] > 0) {
        increment = std::min(increment, available[l] / static_cast<double>(active_on_link[l]));
      }
    }
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (active[f]) {
        increment = std::min(increment, flows[f].effective_demand() - result.flow_rate[f]);
      }
    }
    increment = std::max(increment, 0.0);

    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!active[f]) continue;
      result.flow_rate[f] += increment;
      for (topo::LinkId l : flow_links[f]) available[l] -= increment;
    }

    // Freeze demand-satisfied flows and flows crossing saturated links.
    std::size_t frozen = 0;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!active[f]) continue;
      bool freeze = result.flow_rate[f] >= flows[f].effective_demand() - kEps;
      if (!freeze) {
        for (topo::LinkId l : flow_links[f]) {
          if (available[l] <= kEps) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        active[f] = false;
        ++frozen;
        --n_active;
        for (topo::LinkId l : flow_links[f]) --active_on_link[l];
      }
    }
    SHERIFF_REQUIRE(frozen > 0, "progressive filling failed to make progress");
  }

  for (std::size_t f = 0; f < flows.size(); ++f) {
    flows[f].allocated_gbps = result.flow_rate[f];
    for (topo::LinkId l : flow_links[f]) result.link_load_gbps[l] += result.flow_rate[f];
  }
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    result.link_utilization[l] = result.link_load_gbps[l] / topo.link(l).capacity_gbps;
  }
  return result;
}

}  // namespace sheriff::oracle
