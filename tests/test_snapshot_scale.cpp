// Issue-scale resume differentials (slow suite): the Sec. VI-B evaluation
// fabrics at full round counts — run 200 rounds vs 100 → save → load into
// a fresh engine → 100 more. Byte-identical metrics CSV and placement,
// pristine and under an active fault plan.
// The tier-1 counterpart (test_snapshot.cpp) runs the same differential
// on small fabrics.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace fault = sheriff::fault;

namespace {

constexpr std::size_t kHalfRounds = 100;

std::string metrics_csv(const std::vector<core::RoundMetrics>& rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

std::vector<std::uint32_t> placement(const core::DistributedEngine& engine) {
  std::vector<std::uint32_t> hosts;
  for (wl::VmId vm = 0; vm < engine.deployment().vm_count(); ++vm) {
    hosts.push_back(engine.deployment().vm(vm).host);
  }
  return hosts;
}

void expect_resume_equivalence(const topo::Topology& topology, bool faulted) {
  wl::DeploymentOptions deploy;
  deploy.seed = 2015;
  deploy.vms_per_host = 2.0;
  deploy.placement = wl::PlacementPolicy::kSkewed;

  fault::FaultOptions fault_options;
  fault_options.seed = 41;
  fault_options.message_drop_probability = 0.1;
  fault::FaultPlan plan(fault_options);
  if (faulted) {
    // Explicit link ids so the plan shape also fits BCube (no
    // switch-to-switch links there for random_link_flaps to pick).
    const auto link = [&](std::size_t nth) {
      return static_cast<sheriff::topo::LinkId>(nth % topology.link_count());
    };
    plan.fail_link(link(19), 5, 15);
    plan.fail_link(link(101), kHalfRounds / 2, kHalfRounds / 2 + 10);
    plan.fail_link(link(211), kHalfRounds - 2, kHalfRounds + 8);
    plan.fail_link(link(307), kHalfRounds + 20, 2 * kHalfRounds - 10);
    plan.fail_host(topology.rack(2).hosts[0], kHalfRounds / 2);
    plan.fail_shim(1, kHalfRounds - 5, kHalfRounds + 5);
  }

  core::EngineConfig config;
  config.observe = true;
  config.fault_plan = faulted ? &plan : nullptr;

  core::DistributedEngine continuous(topology, deploy, config);
  std::vector<core::RoundMetrics> continuous_tail;
  for (std::size_t r = 0; r < 2 * kHalfRounds; ++r) {
    core::RoundMetrics m = continuous.run_round();
    if (r >= kHalfRounds) continuous_tail.push_back(m);
  }

  core::DistributedEngine first_half(topology, deploy, config);
  for (std::size_t r = 0; r < kHalfRounds; ++r) (void)first_half.run_round();
  const std::vector<std::uint8_t> checkpoint = core::Checkpoint::serialize(first_half);

  core::DistributedEngine resumed(topology, deploy, config);
  core::Checkpoint::deserialize(resumed, checkpoint);
  std::vector<core::RoundMetrics> resumed_tail;
  for (std::size_t r = 0; r < kHalfRounds; ++r) resumed_tail.push_back(resumed.run_round());

  EXPECT_EQ(metrics_csv(continuous_tail), metrics_csv(resumed_tail));
  EXPECT_EQ(placement(continuous), placement(resumed));
}

topo::Topology evaluation_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 16;
  options.hosts_per_rack = 4;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

topo::Topology evaluation_bcube() {
  topo::BCubeOptions options;
  options.ports = 4;
  options.levels = 2;
  return topo::build_bcube(options);
}

}  // namespace

TEST(SnapshotScale, FatTreeK16Pristine) { expect_resume_equivalence(evaluation_fat_tree(), false); }

TEST(SnapshotScale, FatTreeK16Faulted) { expect_resume_equivalence(evaluation_fat_tree(), true); }

TEST(SnapshotScale, BCube42Pristine) { expect_resume_equivalence(evaluation_bcube(), false); }

TEST(SnapshotScale, BCube42Faulted) { expect_resume_equivalence(evaluation_bcube(), true); }
