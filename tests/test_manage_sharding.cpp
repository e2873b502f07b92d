// Sharded manage sweep (DESIGN.md §11): the shard plan's partition laws,
// and the headline determinism guarantee — a run's metrics CSV and final
// checkpoint bytes are identical for ANY manage_shards value, pristine and
// faulted, on both reference fabrics. The shard count must behave exactly
// like the thread-pool size: a throughput knob, never a semantics knob.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/manage_shards.hpp"
#include "core/metrics.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace fault = sheriff::fault;
namespace snap = sheriff::snapshot;
namespace sc = sheriff::common;

// --- shard plan laws ---------------------------------------------------------

TEST(ShardPlan, PartitionIsContiguousCompleteAndBalanced) {
  for (std::size_t racks : {1u, 2u, 7u, 8u, 9u, 16u, 37u, 512u}) {
    for (std::size_t shards : {1u, 2u, 3u, 8u, 16u}) {
      const core::ManageShardPlan plan(racks, shards);
      const std::size_t effective = std::min(shards, racks);
      ASSERT_EQ(plan.shard_count(), effective);
      ASSERT_EQ(plan.rack_count(), racks);
      std::size_t covered = 0;
      topo::RackId next = 0;
      std::size_t min_size = racks;
      std::size_t max_size = 0;
      for (std::size_t s = 0; s < plan.shard_count(); ++s) {
        const auto block = plan.racks_of(s);
        min_size = std::min(min_size, block.size());
        max_size = std::max(max_size, block.size());
        for (topo::RackId r : block) {
          // Contiguous ascending coverage: each rack appears exactly once,
          // in order, and maps back to its shard.
          ASSERT_EQ(r, next) << "racks=" << racks << " shards=" << shards;
          ASSERT_EQ(plan.shard_of(r), s);
          ++next;
          ++covered;
        }
      }
      ASSERT_EQ(covered, racks);
      // Balanced: block sizes differ by at most one.
      ASSERT_LE(max_size - min_size, 1u) << "racks=" << racks << " shards=" << shards;
    }
  }
}

TEST(ShardPlan, ClampsAndHandlesEmptyFabric) {
  const core::ManageShardPlan oversubscribed(4, 100);
  EXPECT_EQ(oversubscribed.shard_count(), 4u);  // clamped to one rack per shard
  const core::ManageShardPlan zero_request(4, 0);
  EXPECT_EQ(zero_request.shard_count(), 1u);  // clamped up to one shard
  const core::ManageShardPlan empty(0, 8);
  EXPECT_EQ(empty.shard_count(), 0u);
  EXPECT_EQ(empty.rack_count(), 0u);
}

// --- determinism across shard counts ----------------------------------------

namespace {

topo::Topology small_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;  // 8 racks: shard counts 1/2/8 are all distinct plans
  options.hosts_per_rack = 3;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

topo::Topology small_bcube() {
  topo::BCubeOptions options;
  options.ports = 3;  // 9 racks
  options.levels = 2;
  return topo::build_bcube(options);
}

wl::DeploymentOptions sharding_deployment() {
  wl::DeploymentOptions options;
  options.seed = 23;
  options.vms_per_host = 2.5;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

std::string metrics_csv(const std::vector<core::RoundMetrics>& rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

/// Faults across the whole horizon: link flaps, a permanent host loss, a
/// shim crash with neighbor takeover, and a lossy control channel — the
/// commit order and the protocol's RNG draw sequence must stay identical
/// for every shard count even under all of it.
fault::FaultPlan sharding_fault_plan(const topo::Topology& topology, std::size_t rounds) {
  fault::FaultOptions options;
  options.seed = 17;
  options.message_drop_probability = 0.15;
  fault::FaultPlan plan(options);
  const auto link = [&](std::size_t nth) {
    return static_cast<topo::LinkId>(nth % topology.link_count());
  };
  plan.fail_link(link(7), 2, rounds / 4);
  plan.fail_link(link(23), rounds / 3, rounds / 2);
  plan.fail_link(link(41), rounds / 2, rounds - 2);
  plan.fail_host(topology.rack(1).hosts[0], rounds / 2);
  plan.fail_shim(0, rounds / 4, 3 * rounds / 4);
  return plan;
}

struct ShardInvarianceOptions {
  bool faulted = false;
  core::MigrationProtocol protocol = core::MigrationProtocol::kMessagePassing;
  std::size_t rounds = 200;
};

core::EngineConfig sharding_config(const fault::FaultPlan* plan, sc::ThreadPool* pool,
                                   std::size_t shards,
                                   core::MigrationProtocol protocol) {
  core::EngineConfig config;
  config.observe = true;
  config.protocol = protocol;
  config.fault_plan = plan;
  config.pool = pool;
  config.manage_shards = shards;
  return config;
}

/// The headline guarantee: run R rounds at manage_shards ∈ {1, 2, 8} and
/// require the metrics CSV and the final checkpoint (placement, flows,
/// predictors, trace rings, shard bookkeeping — every serialized byte) to
/// be identical across the three runs.
void expect_shard_count_invariance(const topo::Topology& topology,
                                   const wl::DeploymentOptions& deploy,
                                   const ShardInvarianceOptions& opt) {
  fault::FaultPlan plan =
      opt.faulted ? sharding_fault_plan(topology, opt.rounds) : fault::FaultPlan{};
  const fault::FaultPlan* plan_ptr = opt.faulted ? &plan : nullptr;
  std::string reference_csv;
  std::vector<std::uint8_t> reference_checkpoint;
  for (const std::size_t shards : {1u, 2u, 8u}) {
    sc::ThreadPool pool(4);
    core::DistributedEngine engine(topology, deploy,
                                   sharding_config(plan_ptr, &pool, shards, opt.protocol));
    ASSERT_EQ(engine.shard_plan().shard_count(),
              std::min<std::size_t>(shards, topology.rack_count()));
    std::vector<core::RoundMetrics> rounds;
    rounds.reserve(opt.rounds);
    for (std::size_t r = 0; r < opt.rounds; ++r) rounds.push_back(engine.run_round());
    const std::string csv = metrics_csv(rounds);
    const std::vector<std::uint8_t> checkpoint = core::Checkpoint::serialize(engine);
    if (shards == 1) {
      reference_csv = csv;
      reference_checkpoint = checkpoint;
      // The single-shard run must still do real work, or the comparison
      // is vacuous: alerts fired and management acted.
      std::size_t alerts = 0;
      std::size_t actions = 0;
      for (const auto& m : rounds) {
        alerts += m.host_alerts + m.tor_alerts + m.switch_alerts;
        actions += m.migrations + m.reroutes;
      }
      ASSERT_GT(alerts, 0u);
      ASSERT_GT(actions, 0u);
    } else {
      EXPECT_EQ(csv, reference_csv) << "metrics diverged at manage_shards=" << shards;
      EXPECT_EQ(checkpoint == reference_checkpoint, true)
          << "checkpoint bytes diverged at manage_shards=" << shards;
    }
  }
}

}  // namespace

TEST(ManageSharding, FatTreePristineIsShardCountInvariant) {
  expect_shard_count_invariance(small_fat_tree(), sharding_deployment(), {});
}

TEST(ManageSharding, FatTreeFaultedIsShardCountInvariant) {
  ShardInvarianceOptions opt;
  opt.faulted = true;
  expect_shard_count_invariance(small_fat_tree(), sharding_deployment(), opt);
}

TEST(ManageSharding, BCubePristineIsShardCountInvariant) {
  expect_shard_count_invariance(small_bcube(), sharding_deployment(), {});
}

TEST(ManageSharding, BCubeFaultedIsShardCountInvariant) {
  ShardInvarianceOptions opt;
  opt.faulted = true;
  expect_shard_count_invariance(small_bcube(), sharding_deployment(), opt);
}

TEST(ManageSharding, SerializedFcfsProtocolIsShardCountInvariant) {
  ShardInvarianceOptions opt;
  opt.protocol = core::MigrationProtocol::kSerializedFcfs;
  opt.rounds = 60;
  expect_shard_count_invariance(small_fat_tree(), sharding_deployment(), opt);
}

// --- bookkeeping and the checkpoint fingerprint ------------------------------

TEST(ManageSharding, ShardStatsCloseAndRoundTripThroughCheckpoints) {
  const topo::Topology topology = small_fat_tree();
  sc::ThreadPool pool(2);
  core::EngineConfig config;
  config.observe = true;
  config.pool = &pool;
  config.manage_shards = 4;
  core::DistributedEngine engine(topology, sharding_deployment(), config);
  std::size_t conflicts = 0;
  for (std::size_t r = 0; r < 40; ++r) conflicts += engine.run_round().shard_conflicts;

  const core::ManageShardStats& stats = engine.shard_stats();
  EXPECT_EQ(stats.sharded_rounds, 40u);
  // Claims partition into commits + conflicts, and the per-round metric
  // sums to the same conflict tally.
  EXPECT_EQ(stats.reroute_claims, stats.reroute_commits + stats.reroute_conflicts);
  EXPECT_EQ(stats.vm_claims, stats.vm_commits + stats.vm_conflicts);
  EXPECT_EQ(stats.reroute_conflicts + stats.vm_conflicts, conflicts);
  EXPECT_EQ(stats.demands_by_rack.size(), engine.shard_plan().rack_count());

  // The SHRD section round-trips into a fresh engine.
  const std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(engine);
  core::DistributedEngine resumed(topology, sharding_deployment(), config);
  core::Checkpoint::deserialize(resumed, bytes);
  EXPECT_EQ(resumed.shard_stats().sharded_rounds, stats.sharded_rounds);
  EXPECT_EQ(resumed.shard_stats().reroute_claims, stats.reroute_claims);
  EXPECT_EQ(resumed.shard_stats().reroute_commits, stats.reroute_commits);
  EXPECT_EQ(resumed.shard_stats().reroute_conflicts, stats.reroute_conflicts);
  EXPECT_EQ(resumed.shard_stats().vm_claims, stats.vm_claims);
  EXPECT_EQ(resumed.shard_stats().vm_commits, stats.vm_commits);
  EXPECT_EQ(resumed.shard_stats().vm_conflicts, stats.vm_conflicts);
  EXPECT_EQ(resumed.shard_stats().demands_by_rack, stats.demands_by_rack);
}

TEST(ManageSharding, CheckpointLoadsAcrossShardCountsButNotProtocols) {
  // manage_shards is a throughput knob, so a checkpoint loads across
  // different shard counts; the migration protocol changes results, so it
  // fingerprints.
  const topo::Topology topology = small_fat_tree();
  core::EngineConfig sharded;
  sharded.manage_shards = 2;
  core::DistributedEngine engine(topology, sharding_deployment(), sharded);
  for (std::size_t r = 0; r < 4; ++r) (void)engine.run_round();
  const std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(engine);

  core::EngineConfig other_shards = sharded;
  other_shards.manage_shards = 8;
  core::DistributedEngine compatible(topology, sharding_deployment(), other_shards);
  EXPECT_NO_THROW(core::Checkpoint::deserialize(compatible, bytes));

  core::EngineConfig fcfs = sharded;
  fcfs.protocol = core::MigrationProtocol::kSerializedFcfs;
  core::DistributedEngine mismatched(topology, sharding_deployment(), fcfs);
  EXPECT_THROW(core::Checkpoint::deserialize(mismatched, bytes), snap::SnapshotError);
}
