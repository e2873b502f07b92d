// QCN reaction-point tests: rate limits cut under congestion feedback,
// recover in binary-search fashion afterwards, interact correctly with the
// fair-share allocator, and ultimately drain the congested queues.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "net/fair_share.hpp"
#include "net/rate_control.hpp"
#include "net/routing.hpp"
#include "oracles/fair_share.hpp"
#include "snapshot/archive.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "topology/liveness.hpp"

namespace topo = sheriff::topo;
namespace net = sheriff::net;
namespace sc = sheriff::common;
namespace snap = sheriff::snapshot;
namespace oracle = sheriff::oracle;

namespace {

topo::Topology narrow_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 2;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

std::vector<net::Flow> incast_flows(const topo::Topology& t, double demand) {
  // Several racks all send to one victim host: guaranteed congestion.
  std::vector<net::Flow> flows;
  const topo::NodeId victim = t.rack(0).hosts[0];
  for (topo::RackId r = 1; r <= 3; ++r) {
    for (topo::NodeId h : t.rack(r).hosts) {
      net::Flow f;
      f.id = static_cast<net::FlowId>(flows.size());
      f.src_host = h;
      f.dst_host = victim;
      f.demand_gbps = demand;
      flows.push_back(f);
    }
  }
  return flows;
}

}  // namespace

TEST(FlowEffectiveDemand, HonorsLimit) {
  net::Flow f;
  f.demand_gbps = 2.0;
  EXPECT_DOUBLE_EQ(f.effective_demand(), 2.0);  // unlimited by default
  f.rate_limit_gbps = 0.5;
  EXPECT_DOUBLE_EQ(f.effective_demand(), 0.5);
  f.rate_limit_gbps = 5.0;
  EXPECT_DOUBLE_EQ(f.effective_demand(), 2.0);
}

TEST(QcnRateController, CutsUnderCongestionAndRecoversAfter) {
  const auto t = narrow_fat_tree();
  net::Router router(t);
  auto flows = incast_flows(t, 1.5);
  router.route_all(std::span<net::Flow>(flows));

  net::QcnConfig qconfig;
  qconfig.equilibrium_queue = 0.5;
  net::SwitchQueues queues(t, qconfig);
  net::QcnRateController controller;

  // Drive congestion for a few periods: limits must appear and bite.
  bool limited = false;
  for (int tick = 0; tick < 8; ++tick) {
    const auto shares = oracle::max_min_fair_share(t, flows);
    queues.update(shares, flows);
    controller.update(flows, queues);
    for (const auto& f : flows) {
      if (f.rate_limit_gbps < f.demand_gbps) limited = true;
    }
  }
  EXPECT_TRUE(limited);
  EXPECT_GT(controller.tracked_flows(), 0u);

  // Kill the demand: queues drain, recovery lifts every limit.
  for (auto& f : flows) f.demand_gbps = 0.01;
  for (int tick = 0; tick < 80; ++tick) {
    const auto shares = oracle::max_min_fair_share(t, flows);
    queues.update(shares, flows);
    controller.update(flows, queues);
  }
  EXPECT_EQ(controller.tracked_flows(), 0u);
  for (const auto& f : flows) {
    EXPECT_EQ(f.rate_limit_gbps, std::numeric_limits<double>::infinity());
  }
}

TEST(QcnRateController, LimitsReduceQueueBacklog) {
  const auto t = narrow_fat_tree();
  net::Router router(t);

  const auto run = [&](bool enable_control) {
    auto flows = incast_flows(t, 1.5);
    router.route_all(std::span<net::Flow>(flows));
    net::QcnConfig qconfig;
    qconfig.equilibrium_queue = 0.5;
    net::SwitchQueues queues(t, qconfig);
    net::QcnRateController controller;
    double total_backlog = 0.0;
    for (int tick = 0; tick < 30; ++tick) {
      const auto shares = oracle::max_min_fair_share(t, flows);
      queues.update(shares, flows);
      if (enable_control) controller.update(flows, queues);
      for (const auto& node : t.nodes()) {
        if (topo::is_switch(node.kind)) total_backlog += queues.queue_length(node.id);
      }
    }
    return total_backlog;
  };

  const double with_control = run(true);
  const double without_control = run(false);
  EXPECT_LT(with_control, 0.7 * without_control);
}

TEST(QcnRateController, NeverBelowFloor) {
  const auto t = narrow_fat_tree();
  net::Router router(t);
  auto flows = incast_flows(t, 2.0);
  router.route_all(std::span<net::Flow>(flows));
  net::QcnConfig qconfig;
  qconfig.equilibrium_queue = 0.1;  // very aggressive congestion signal
  net::SwitchQueues queues(t, qconfig);
  net::QcnRateConfig rconfig;
  rconfig.min_rate_gbps = 0.05;
  net::QcnRateController controller(rconfig);
  for (int tick = 0; tick < 40; ++tick) {
    const auto shares = oracle::max_min_fair_share(t, flows);
    queues.update(shares, flows);
    controller.update(flows, queues);
  }
  for (const auto& f : flows) {
    EXPECT_GE(f.rate_limit_gbps, rconfig.min_rate_gbps - 1e-12);
  }
}

TEST(QcnRateController, ConfigValidation) {
  net::QcnRateConfig bad;
  bad.decrease_gain = 1.5;
  EXPECT_THROW(net::QcnRateController{bad}, sc::RequirementError);
  bad = {};
  bad.min_rate_gbps = 0.0;
  EXPECT_THROW(net::QcnRateController{bad}, sc::RequirementError);
}

TEST(QcnRateController, UnroutedFlowsIgnored) {
  const auto t = narrow_fat_tree();
  std::vector<net::Flow> flows(1);
  flows[0].demand_gbps = 1.0;  // never routed
  net::SwitchQueues queues(t);
  net::QcnRateController controller;
  controller.update(flows, queues);
  EXPECT_EQ(controller.tracked_flows(), 0u);
}

// --- the congested flag vs a transit reference ------------------------------
// DSCP marking and the QCN reaction point test each flow's interior nodes
// against SwitchQueues' per-switch congested flag. They must agree with
// the direct reading the flag replaced: the congested set taken from each
// live switch's queue and feedback, and per flow a search of its path for
// every congested switch (Flow::transits). Queues are forced by
// synthetic fair-share results that overload a random quarter of the
// links by up to 6 Gbps per tick, and one switch goes down mid-run.

namespace {

/// A seeded flow table over `t`'s hosts, routed unblocked; same-host pairs
/// stay unrouted.
std::vector<net::Flow> seeded_flows(const topo::Topology& t, std::size_t count,
                                    sc::Pcg32& rng) {
  net::Router router(t);
  const auto hosts = t.nodes_of_kind(topo::NodeKind::kHost);
  std::vector<net::Flow> flows(count);
  for (std::size_t i = 0; i < count; ++i) {
    flows[i].id = static_cast<net::FlowId>(i);
    flows[i].src_host = hosts[rng.next_below(static_cast<std::uint32_t>(hosts.size()))];
    flows[i].dst_host = hosts[rng.next_below(static_cast<std::uint32_t>(hosts.size()))];
    flows[i].demand_gbps = rng.uniform(0.1, 2.0);
  }
  router.route_all(flows);
  return flows;
}

/// Offered load above the serviced load on a random quarter of the links.
net::FairShareResult forced_shares(const topo::Topology& t, sc::Pcg32& rng) {
  net::FairShareResult shares;
  shares.link_load_gbps.assign(t.link_count(), 0.0);
  shares.link_offered_gbps.assign(t.link_count(), 0.0);
  shares.link_utilization.assign(t.link_count(), 0.0);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    if (rng.next_below(4) == 0) shares.link_offered_gbps[l] = rng.uniform(0.0, 6.0);
  }
  return shares;
}

/// The congested set read off each live switch's queue and feedback.
std::vector<topo::NodeId> reference_congested(const topo::Topology& t,
                                              const net::SwitchQueues& queues,
                                              const topo::LivenessMask& liveness) {
  std::vector<topo::NodeId> out;
  for (const auto& node : t.nodes()) {
    if (!topo::is_switch(node.kind) || !liveness.node_up(node.id)) continue;
    if (queues.queue_length(node.id) > 0.0 &&
        queues.feedback(node.id) < queues.config().congestion_feedback) {
      out.push_back(node.id);
    }
  }
  return out;
}

/// QcnRateController::update, with each flow's worst feedback found by a
/// Flow::transits search over the congested list.
struct ReferenceQcn {
  struct Limit {
    double limit = 0.0;
    double target = 0.0;
  };
  net::QcnRateConfig config;
  std::map<net::FlowId, Limit> state;

  void update(std::span<const net::Flow> flows, const std::vector<topo::NodeId>& congested,
              const net::SwitchQueues& queues) {
    for (const net::Flow& flow : flows) {
      if (!flow.routed()) continue;
      double worst = 0.0;
      for (const topo::NodeId sw : congested) {
        if (flow.transits(sw)) worst = std::min(worst, queues.feedback(sw));
      }
      const auto it = state.find(flow.id);
      if (worst < 0.0) {
        Limit& st = state[flow.id];
        const double current =
            st.limit > 0.0 ? std::min(st.limit, flow.demand_gbps) : flow.demand_gbps;
        st.target = current;
        const double severity = std::min(1.0, std::fabs(worst) / config.feedback_scale);
        st.limit =
            std::max(config.min_rate_gbps, current * (1.0 - config.decrease_gain * severity));
      } else if (it != state.end()) {
        Limit& st = it->second;
        if (st.limit < st.target) {
          st.limit = 0.5 * (st.limit + st.target);
        } else {
          st.limit += config.probe_step_gbps;
          st.target = st.limit;
        }
        if (st.limit >= flow.demand_gbps) state.erase(it);
      }
    }
  }

  [[nodiscard]] double limit(net::FlowId id) const {
    const auto it = state.find(id);
    return it != state.end() ? it->second.limit : std::numeric_limits<double>::infinity();
  }
};

void expect_flag_readers_match_reference(const topo::Topology& t, std::uint64_t seed,
                                         const std::string& label) {
  sc::Pcg32 rng(seed, 9);
  std::vector<net::Flow> flows = seeded_flows(t, 400, rng);
  topo::LivenessMask liveness(t);
  net::SwitchQueues queues(t);
  queues.set_liveness(&liveness);
  net::QcnRateController controller;
  ReferenceQcn reference;
  std::size_t marked = 0;
  std::size_t limited = 0;
  for (int tick = 0; tick < 8; ++tick) {
    if (tick == 4) {
      // Down the switch the most flows transit; its queue is flushed.
      topo::NodeId busiest = topo::kInvalidNode;
      std::size_t most = 0;
      for (const auto& node : t.nodes()) {
        if (!topo::is_switch(node.kind)) continue;
        const auto through = static_cast<std::size_t>(std::ranges::count_if(
            flows, [&](const net::Flow& f) { return f.transits(node.id); }));
        if (through > most) {
          most = through;
          busiest = node.id;
        }
      }
      liveness.set_node(busiest, false);
    }
    queues.update(forced_shares(t, rng), flows);
    const std::vector<topo::NodeId> congested = reference_congested(t, queues, liveness);
    ASSERT_EQ(queues.congested_switches(), congested) << label << " tick " << tick;
    for (const auto& node : t.nodes()) {
      EXPECT_EQ(queues.congested(node.id),
                std::ranges::find(congested, node.id) != congested.end())
          << label << " tick " << tick << " node " << node.id;
    }
    for (const net::Flow& f : flows) {
      const bool hot = std::ranges::any_of(congested, [&](topo::NodeId sw) {
        return f.transits(sw);
      });
      EXPECT_EQ(f.dscp, hot ? net::DscpMark::kCongested : net::DscpMark::kNone)
          << label << " tick " << tick << " flow " << f.id;
      marked += hot ? 1 : 0;
    }
    controller.update(flows, queues);
    reference.update(flows, congested, queues);
    ASSERT_EQ(controller.tracked_flows(), reference.state.size()) << label << " tick " << tick;
    for (const net::Flow& f : flows) {
      EXPECT_EQ(controller.limit(f.id), reference.limit(f.id))
          << label << " tick " << tick << " flow " << f.id;
      EXPECT_EQ(f.rate_limit_gbps, reference.limit(f.id))
          << label << " tick " << tick << " flow " << f.id;
    }
    limited += reference.state.size();
  }
  // The forced queues must exercise both outcomes.
  EXPECT_GT(marked, 0u) << label;
  EXPECT_LT(marked, 8 * flows.size()) << label;
  EXPECT_GT(limited, 0u) << label;
}

}  // namespace

TEST(CongestedFlag, DscpAndQcnMatchTransitReference) {
  topo::FatTreeOptions ft8;
  ft8.pods = 8;
  topo::BCubeOptions bcube;
  bcube.ports = 4;
  bcube.levels = 1;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_flag_readers_match_reference(topo::build_fat_tree(ft8), seed,
                                        "fat_tree_k8 seed " + std::to_string(seed));
    expect_flag_readers_match_reference(topo::build_bcube(bcube), seed,
                                        "bcube_4_1 seed " + std::to_string(seed));
  }
}

// The congested set is derived state: a restored SwitchQueues must rebuild
// it from the backlog and answer exactly as the saved one did.
TEST(CongestedFlag, SaveLoadRoundTripKeepsTheSet) {
  topo::FatTreeOptions ft8;
  ft8.pods = 8;
  const auto t = topo::build_fat_tree(ft8);
  sc::Pcg32 rng(4, 9);
  std::vector<net::Flow> flows = seeded_flows(t, 200, rng);
  net::SwitchQueues saved(t);
  for (int tick = 0; tick < 3; ++tick) saved.update(forced_shares(t, rng), flows);
  ASSERT_FALSE(saved.congested_switches().empty());

  snap::Archive out;
  out.begin_section("QUEU", 1);
  saved.checkpoint(out);
  out.end_section();
  snap::Archive in(out.buffer());
  in.begin_section("QUEU", 1);
  net::SwitchQueues restored(t);
  restored.checkpoint(in);
  in.end_section();

  EXPECT_EQ(restored.congested_switches(), saved.congested_switches());
  for (const auto& node : t.nodes()) {
    EXPECT_EQ(restored.congested(node.id), saved.congested(node.id)) << "node " << node.id;
  }
}
