// replay_bisect: find the first divergent round of a long run with
// O(log N) probes instead of N-round re-runs — the deterministic-replay
// payoff of the checkpoint subsystem (DESIGN.md §10).
//
// The setup mimics the real debugging situation: a "golden" digest log
// from a reference build, and a current build whose end state differs.
// Here the two builds are emulated by the engine's two fair-share
// implementations (incremental vs from-scratch waterfill — deterministic
// individually, not bit-identical to each other), so the divergence is
// genuine, not injected into the log by hand.
//
// The current run keeps only periodic in-memory checkpoints. To probe an
// arbitrary round r, the bisection loads the nearest checkpoint at or
// below r into a freshly constructed engine, replays forward to r, and
// compares digests. Each probe costs at most `checkpoint interval`
// rounds; the whole search is O(interval · log N).
//
//   $ ./replay_bisect [rounds] [checkpoint-interval]

#include <bit>
#include <cstdint>
#include <iostream>
#include <map>
#include <vector>

#include "cli_args.hpp"
#include "core/engine.hpp"
#include "snapshot/checkpoint.hpp"
#include "topology/fat_tree.hpp"

namespace {

using namespace sheriff;

/// FNV-1a over the round's metrics and the resulting placement: any
/// difference in management decisions or outcomes changes the digest.
std::uint64_t digest_round(const core::RoundMetrics& m, const core::DistributedEngine& engine) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_f64 = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  mix(m.round);
  mix(m.migrations);
  mix(m.reroutes);
  mix(m.host_alerts + m.tor_alerts + m.switch_alerts);
  mix_f64(m.workload_stddev_after);
  mix_f64(m.migration_cost);
  mix_f64(m.flow_satisfaction);
  const wl::Deployment& deployment = engine.deployment();
  for (wl::VmId vm = 0; vm < deployment.vm_count(); ++vm) mix(deployment.vm(vm).host);
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kUsage = "[rounds 1..100000] [checkpoint-interval 1..100000]";
  const std::size_t rounds =
      examples::positional<std::size_t>(argc, argv, 1, 64, 1, 100000, kUsage);
  const std::size_t interval =
      examples::positional<std::size_t>(argc, argv, 2, 8, 1, 100000, kUsage);

  // Tight ToR–agg links plus a skewed placement: enough contention that
  // hot switches (and thus reroutes) actually occur mid-run.
  topo::FatTreeOptions topo_options;
  topo_options.pods = 4;
  topo_options.hosts_per_rack = 3;
  topo_options.tor_agg_gbps = 1.0;
  const auto topology = topo::build_fat_tree(topo_options);

  wl::DeploymentOptions deploy_options;
  deploy_options.seed = 11;
  deploy_options.vms_per_host = 3.0;
  deploy_options.placement = wl::PlacementPolicy::kSkewed;

  // "Reference build": the default reroute split. Only its digests survive.
  std::cout << "reference run (" << rounds << " rounds, reroute_fraction 0.5)...\n";
  std::vector<std::uint64_t> golden;
  {
    core::EngineConfig config;
    core::DistributedEngine engine(topology, deploy_options, config);
    for (std::size_t r = 0; r < rounds; ++r) {
      golden.push_back(digest_round(engine.run_round(), engine));
    }
  }

  // "Current build": a behavior change slipped in — a more aggressive
  // reroute split. The two builds agree until the first round where a shim
  // actually reroutes around a hot switch; bisection pinpoints that round.
  // Keep only periodic checkpoints — per-round digests are deliberately
  // discarded, as they would be for a run too long to log exhaustively.
  core::EngineConfig config;
  config.sheriff.reroute_fraction = 0.75;
  const auto make_engine = [&] {
    return core::DistributedEngine(topology, deploy_options, config);
  };
  std::cout << "current run (reroute_fraction 0.75), checkpoint every " << interval
            << " rounds...\n";
  std::map<std::size_t, std::vector<std::uint8_t>> checkpoints;
  std::uint64_t final_digest = 0;
  {
    core::DistributedEngine engine = make_engine();
    checkpoints[0] = core::Checkpoint::serialize(engine);
    for (std::size_t r = 0; r < rounds; ++r) {
      final_digest = digest_round(engine.run_round(), engine);
      if (engine.rounds_run() % interval == 0) {
        checkpoints[engine.rounds_run()] = core::Checkpoint::serialize(engine);
      }
    }
  }
  if (final_digest == golden.back()) {
    std::cout << "runs agree at round " << rounds << "; nothing to bisect.\n";
    return 0;
  }
  std::cout << "final round diverges; bisecting...\n";

  // Probe: digest of the current build at round r, reconstructed from the
  // nearest checkpoint at or below r.
  std::size_t probes = 0;
  std::size_t replayed_rounds = 0;
  const auto probe = [&](std::size_t r) {
    auto it = checkpoints.upper_bound(r - 1);  // first checkpoint > r-1
    --it;                                      // nearest at or below r-1
    core::DistributedEngine engine = make_engine();
    core::Checkpoint::deserialize(engine, it->second);
    std::uint64_t d = 0;
    while (engine.rounds_run() < r) {
      d = digest_round(engine.run_round(), engine);
      ++replayed_rounds;
    }
    ++probes;
    return d;
  };

  // Invariant: rounds 1..lo agree, round hi diverges.
  std::size_t lo = 0;
  std::size_t hi = rounds;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool agrees = probe(mid) == golden[mid - 1];
    std::cout << "  round " << mid << ": " << (agrees ? "agrees" : "diverges") << "\n";
    if (agrees) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  std::cout << "\nfirst divergent round: " << hi << " (" << probes << " probes, "
            << replayed_rounds << " rounds replayed vs " << rounds
            << " for one full re-run)\n";
  return 0;
}
