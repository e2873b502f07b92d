// The manage phase's propose/commit bookkeeping (DESIGN.md §11): the
// ManageShardStats tallies close, the SHRD section that carries them
// round-trips through a checkpoint, and the checkpoint fingerprint keys on
// the migration protocol but not on execution-only knobs.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/fat_tree.hpp"
#include "workload/deployment.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace snap = sheriff::snapshot;
namespace sc = sheriff::common;

namespace {

topo::Topology small_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 3;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

wl::DeploymentOptions sharding_deployment() {
  wl::DeploymentOptions options;
  options.seed = 23;
  options.vms_per_host = 2.5;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

}  // namespace

TEST(ManageSharding, ShardStatsCloseAndRoundTripThroughCheckpoints) {
  const topo::Topology topology = small_fat_tree();
  core::EngineConfig config;
  config.observe = true;
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
  EXPECT_EQ(stats.demands_by_rack.size(), topology.rack_count());

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
  // The name predates the serial propose loop, which left no shard count to
  // vary; EngineConfig::pool is the execution-only knob that remains. It
  // changes no result, so a checkpoint written with a pool loads into an
  // engine without one, SHRD tallies intact; the migration protocol changes
  // results, so it fingerprints.
  const topo::Topology topology = small_fat_tree();
  sc::ThreadPool pool(2);
  core::EngineConfig pooled;
  pooled.pool = &pool;
  core::DistributedEngine engine(topology, sharding_deployment(), pooled);
  for (std::size_t r = 0; r < 4; ++r) (void)engine.run_round();
  const std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(engine);

  core::DistributedEngine compatible(topology, sharding_deployment(), core::EngineConfig{});
  EXPECT_NO_THROW(core::Checkpoint::deserialize(compatible, bytes));
  EXPECT_EQ(compatible.rounds_run(), 4u);
  EXPECT_EQ(compatible.shard_stats().sharded_rounds, engine.shard_stats().sharded_rounds);

  core::EngineConfig fcfs = pooled;
  fcfs.protocol = core::MigrationProtocol::kSerializedFcfs;
  core::DistributedEngine mismatched(topology, sharding_deployment(), fcfs);
  EXPECT_THROW(core::Checkpoint::deserialize(mismatched, bytes), snap::SnapshotError);
}
