// sheriff_perfbench: the engine benchmark (README.md beside this directory's
// CMakeLists.txt explains the workloads and the metrics).
//
//   sheriff_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--pool <threads>] [--scale full|tiny] [--spans <file>]
//                     [--commit <id>]
//
// One process runs one workload as a closed loop with one client: each
// run_round() starts when the previous one has returned. By default the
// engine's pool has one thread and the client runs on it, so the engine's
// parallel sweeps run inline; --pool N > 1 dispatches them to N workers.
// Each replica runs a fixed number of rounds, sized so the run lasts about
// --seconds at the reference speed (reference.hpp), and host times are
// reported scaled to that speed. --trace 0 prints the end-to-end metrics of
// an untraced run. --trace 1 runs untraced for half the time, replays the
// same rounds on a fresh engine with per-round spans and `observe` on, and
// prints the per-layer metrics plus the tracing overhead. Spans stay in
// memory and go to --spans at the end.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}. The exit code is 0 only when every correctness
// check passed; malformed arguments exit with 2 and a refused timing
// environment with 3, both without a result line.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "reference.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "workloads.hpp"

namespace {

using namespace sheriff;
using perfbench::Scale;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- command line ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::size_t pool = 1;
  Scale scale = Scale::kFull;
  std::string spans_path;
  std::string commit = "unknown";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "sheriff_perfbench: " << message << "\n"
            << "usage: sheriff_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
            << "         [--pool <threads>] [--scale full|tiny] [--spans <file>] "
               "[--commit <id>]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text, std::uint64_t lo,
                         std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < lo || value > hi) {
    usage_error(flag + " expects an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

Options parse_options(int argc, char** argv, std::size_t nproc) {
  Options o;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (!seen.insert(flag).second) usage_error("duplicate " + flag);
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value, 0, std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--seconds") {
      o.seconds = parse_uint(flag, value, 1, 600);
    } else if (flag == "--trace") {
      o.trace = parse_uint(flag, value, 0, 1) == 1;
    } else if (flag == "--pool") {
      o.pool = parse_uint(flag, value, 1, nproc);
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage_error("--scale expects full or tiny");
      o.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) usage_error(std::string("missing ") + required);
  }
  return o;
}

// --- measurement records -----------------------------------------------------

/// Flat view of core::PhaseProfile: the engine's cumulative phase clocks.
struct Phases {
  std::uint64_t fault = 0;
  std::uint64_t workload = 0;
  std::uint64_t fair_share = 0;
  std::uint64_t fair_share_build = 0;
  std::uint64_t fair_share_fill = 0;
  std::uint64_t queue = 0;
  std::uint64_t predict = 0;
  std::uint64_t manage = 0;
  std::uint64_t kmedian = 0;
  std::uint64_t decision = 0;
  std::uint64_t commit = 0;
  std::uint64_t propose_sum = 0;  ///< summed over shards
};

Phases read_phases(const core::PhaseProfile& p) {
  Phases out;
  out.fault = p.fault_ns;
  out.workload = p.workload_ns;
  out.fair_share = p.fair_share_ns;
  out.fair_share_build = p.fair_share_build_ns;
  out.fair_share_fill = p.fair_share_fill_ns;
  out.queue = p.queue_ns;
  out.predict = p.predict_ns;
  out.manage = p.manage_ns;
  out.kmedian = p.manage_kmedian_ns;
  out.decision = p.manage_decision_ns;
  out.commit = p.manage_commit_ns;
  for (std::uint64_t ns : p.manage_shard_propose_ns) out.propose_sum += ns;
  return out;
}

Phases operator-(const Phases& a, const Phases& b) {
  return {a.fault - b.fault,
          a.workload - b.workload,
          a.fair_share - b.fair_share,
          a.fair_share_build - b.fair_share_build,
          a.fair_share_fill - b.fair_share_fill,
          a.queue - b.queue,
          a.predict - b.predict,
          a.manage - b.manage,
          a.kmedian - b.kmedian,
          a.decision - b.decision,
          a.commit - b.commit,
          a.propose_sum - b.propose_sum};
}

/// Cumulative layer counters read through the engine's public accessors.
struct Counters {
  std::uint64_t path_hits = 0;
  std::uint64_t path_misses = 0;
  std::uint64_t tree_hits = 0;
  std::uint64_t tree_misses = 0;
  std::uint64_t fs_reused = 0;
  std::uint64_t fs_affected = 0;
  std::uint64_t fs_full_rebuilds = 0;
  std::uint64_t claims = 0;
  std::uint64_t commits = 0;
  std::uint64_t cost_evaluated = 0;
  std::uint64_t cost_pruned = 0;
};

Counters read_counters(const core::DistributedEngine& engine) {
  static const std::string kEvaluated = "cost.evaluated";
  static const std::string kPruned = "cost.pruned";
  Counters c;
  const net::RouterCacheStats& router = engine.router().cache_stats();
  c.path_hits = router.path_hits;
  c.path_misses = router.path_misses;
  c.tree_hits = router.tree_hits;
  c.tree_misses = router.tree_misses;
  const net::FairShareSolver::Stats& fs = engine.fair_share_solver().stats();
  c.fs_reused = fs.reused_flows;
  c.fs_affected = fs.affected_flows;
  c.fs_full_rebuilds = fs.full_rebuilds;
  const core::ManageShardStats& shards = engine.shard_stats();
  c.claims = shards.reroute_claims + shards.vm_claims;
  c.commits = shards.reroute_commits + shards.vm_commits;
  if (const obs::ObservationHub* hub = engine.observation_hub()) {
    const obs::MetricRegistry& registry = hub->registry();
    if (const obs::Counter* e = registry.find_counter(kEvaluated)) c.cost_evaluated = e->value();
    if (const obs::Counter* p = registry.find_counter(kPruned)) c.cost_pruned = p->value();
  }
  return c;
}

void accumulate(Counters& total, const Counters& after, const Counters& before) {
  total.path_hits += after.path_hits - before.path_hits;
  total.path_misses += after.path_misses - before.path_misses;
  total.tree_hits += after.tree_hits - before.tree_hits;
  total.tree_misses += after.tree_misses - before.tree_misses;
  total.fs_reused += after.fs_reused - before.fs_reused;
  total.fs_affected += after.fs_affected - before.fs_affected;
  total.fs_full_rebuilds += after.fs_full_rebuilds - before.fs_full_rebuilds;
  total.claims += after.claims - before.claims;
  total.commits += after.commits - before.commits;
  total.cost_evaluated += after.cost_evaluated - before.cost_evaluated;
  total.cost_pruned += after.cost_pruned - before.cost_pruned;
}

/// One run_round() of the traced run: the round span (relative to the run
/// start) and its child spans, the phase deltas across the call.
struct RoundSpan {
  std::size_t replica = 0;
  std::uint64_t start_ns = 0;  ///< relative to the replica's run start
  std::uint64_t end_ns = 0;
  Phases children;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  [[nodiscard]] std::uint64_t duration() const { return end_ns - start_ns; }
  /// Round span minus its phase children: publishing, audit, glue.
  [[nodiscard]] double self_ms() const {
    const Phases& c = children;
    const std::uint64_t covered =
        c.fault + c.workload + c.fair_share + c.queue + c.predict + c.manage;
    return (static_cast<double>(duration()) - static_cast<double>(covered)) / 1e6;
  }
};

struct SnapshotSpan {
  std::size_t at_round = 0;
  std::uint64_t serialize_ns = 0;
  std::uint64_t restore_ns = 0;  ///< fresh engine construction + deserialize
  std::size_t bytes = 0;
  /// Part of the workload's timed loop, not the closing probe of a traced
  /// run; only these count toward the layer shares.
  bool timed = false;
};

struct RunResult {
  std::vector<core::RoundMetrics> metrics;  ///< every round, in order
  // One entry per timed round:
  std::vector<std::uint64_t> round_ns;     ///< host time of the run_round() call
  std::vector<std::uint64_t> trip_ns;      ///< checkpoint round trip just before it, or 0
  std::vector<std::uint64_t> ref_ns;       ///< reference chunk just after it
  std::vector<std::size_t> round_replica;  ///< its replica
  std::vector<RoundSpan> spans;            ///< traced run only
  std::vector<SnapshotSpan> snapshots;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Counters counters;  ///< traced run only: summed per-round deltas
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }

  /// Appends another replica's run.
  void merge(RunResult&& other) {
    metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
    round_ns.insert(round_ns.end(), other.round_ns.begin(), other.round_ns.end());
    trip_ns.insert(trip_ns.end(), other.trip_ns.begin(), other.trip_ns.end());
    ref_ns.insert(ref_ns.end(), other.ref_ns.begin(), other.ref_ns.end());
    round_replica.insert(round_replica.end(), other.round_replica.begin(),
                         other.round_replica.end());
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
    snapshots.insert(snapshots.end(), other.snapshots.begin(), other.snapshots.end());
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    accumulate(counters, other.counters, Counters{});
    attempted += other.attempted;
    failed += other.failed;
    for (std::string& f : other.failures) {
      if (failures.size() < 8) failures.push_back(std::move(f));
    }
  }
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// --- engines -----------------------------------------------------------------

struct Context {
  const Workload* workload = nullptr;
  const topo::Topology* topology = nullptr;
  const fault::FaultPlan* plan = nullptr;  ///< fault drill only
  common::ThreadPool* pool = nullptr;
};

std::unique_ptr<core::DistributedEngine> make_engine(const Context& ctx, bool observe) {
  core::EngineConfig config = ctx.workload->config;
  config.pool = ctx.pool;
  config.fault_plan = ctx.plan;
  config.observe = config.observe || observe;
  return std::make_unique<core::DistributedEngine>(*ctx.topology, ctx.workload->deploy, config);
}

std::string csv_row(const core::RoundMetrics& m) {
  std::ostringstream os;
  core::write_metrics_csv(os, std::span<const core::RoundMetrics>(&m, 1));
  return os.str();
}

/// Empty when the round's metrics are sane; otherwise what is wrong.
std::string check_round(const core::RoundMetrics& m) {
  const std::pair<const char*, double> fields[] = {
      {"workload_stddev_before", m.workload_stddev_before},
      {"workload_stddev_after", m.workload_stddev_after},
      {"workload_mean", m.workload_mean},
      {"migration_cost", m.migration_cost},
      {"max_link_utilization", m.max_link_utilization},
      {"flow_satisfaction", m.flow_satisfaction},
      {"flow_fairness", m.flow_fairness},
      {"migration_seconds", m.migration_seconds},
      {"migration_downtime_seconds", m.migration_downtime_seconds},
  };
  for (const auto& [name, value] : fields) {
    if (!std::isfinite(value)) return std::string("non-finite ") + name;
  }
  if (m.flow_satisfaction < 0.0 || m.flow_satisfaction > 1.0) {
    return "flow_satisfaction " + std::to_string(m.flow_satisfaction) + " outside [0, 1]";
  }
  return {};
}

std::size_t audit_violations(const core::DistributedEngine& engine) {
  const obs::ObservationHub* hub = engine.observation_hub();
  return hub != nullptr && hub->auditor() != nullptr ? hub->auditor()->violation_count() : 0;
}

/// Checkpoint round trip: serialize `engine`, restore the bytes into a
/// freshly constructed engine, and swap it in — the run continues on the
/// restored engine. The original first runs one more round, untimed, whose
/// metrics the restored engine's next round must reproduce.
core::RoundMetrics round_trip(const Context& ctx, bool observe,
                              std::unique_ptr<core::DistributedEngine>& engine, RunResult& run) {
  SnapshotSpan span;
  span.at_round = engine->rounds_run();
  const auto t0 = Clock::now();
  std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(*engine);
  const auto t1 = Clock::now();
  span.bytes = bytes.size();
  std::unique_ptr<core::DistributedEngine> restored = make_engine(ctx, observe);
  core::Checkpoint::deserialize(*restored, std::move(bytes));
  const auto t2 = Clock::now();
  span.serialize_ns = ns_between(t0, t1);
  span.restore_ns = ns_between(t1, t2);
  run.snapshots.push_back(span);
  core::RoundMetrics expected = engine->run_round();
  engine = std::move(restored);
  return expected;
}

/// The closed loop. Runs `rounds` rounds; when `cap_seconds` is non-zero it
/// stops early once that much time has passed and the outcome window is
/// complete, so a host far slower than the reference still ends in time.
/// Rounds after the warm-up are timed, and each is followed by one
/// reference chunk, the yardstick for the host's speed; `traced` also
/// records their spans and counters.
RunResult run_loop(const Context& ctx, std::unique_ptr<core::DistributedEngine> engine,
                   std::size_t rounds, double cap_seconds, bool traced, std::size_t replica) {
  const Workload& w = *ctx.workload;
  RunResult run;
  run.metrics.reserve(rounds);
  run.round_ns.reserve(rounds);
  run.trip_ns.reserve(rounds);
  run.ref_ns.reserve(rounds);
  if (traced) run.spans.reserve(rounds);
  const std::size_t min_rounds = perfbench::min_rounds(w);
  std::size_t violations = audit_violations(*engine);
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  try {
    while (run.metrics.size() < rounds) {
      const std::size_t n = run.metrics.size();
      if (cap_seconds > 0.0 && n >= min_rounds && elapsed() >= cap_seconds) break;
      const bool timed = n >= perfbench::kWarmupRounds;
      std::optional<core::RoundMetrics> expected;
      std::uint64_t trip_ns = 0;
      if (w.checkpoint_every != 0 && n > 0 && n % w.checkpoint_every == 0) {
        expected = round_trip(ctx, traced, engine, run);
        ++run.attempted;
        SnapshotSpan& trip = run.snapshots.back();
        trip.timed = timed;
        trip_ns = trip.serialize_ns + trip.restore_ns;
      }

      ++run.attempted;
      RoundSpan span;
      span.replica = replica;
      Counters before;
      if (traced && timed) {
        span.children = read_phases(engine->phase_profile());
        before = read_counters(*engine);
      }
      const perfbench::AllocTotals alloc_before = perfbench::alloc_totals();
      const auto t0 = Clock::now();
      const core::RoundMetrics m = engine->run_round();
      const auto t1 = Clock::now();
      const perfbench::AllocTotals alloc_after = perfbench::alloc_totals();
      if (timed) {
        run.round_ns.push_back(ns_between(t0, t1));
        run.trip_ns.push_back(trip_ns);
        run.round_replica.push_back(replica);
        run.ref_ns.push_back(perfbench::reference_chunk_ns());
      }
      if (traced && timed) {
        span.start_ns = ns_between(start, t0);
        span.end_ns = ns_between(start, t1);
        span.children = read_phases(engine->phase_profile()) - span.children;
        span.allocs = alloc_after.count - alloc_before.count;
        span.alloc_bytes = alloc_after.bytes - alloc_before.bytes;
        accumulate(run.counters, read_counters(*engine), before);
        run.spans.push_back(span);
      }
      run.metrics.push_back(m);

      std::string problem = check_round(m);
      const std::size_t now_violations = audit_violations(*engine);
      if (problem.empty() && now_violations != violations) {
        problem = std::to_string(now_violations - violations) + " auditor violation(s)";
      }
      violations = now_violations;
      if (problem.empty() && expected && csv_row(*expected) != csv_row(m)) {
        problem = "restored engine diverged from the original after the checkpoint";
      }
      if (!problem.empty()) run.fail("round " + std::to_string(m.round) + ": " + problem);
    }
    // Every workload's traced run ends with one checkpoint round trip, so
    // the snapshot layer is measured even where the loop never saved.
    if (traced && run.snapshots.empty()) {
      ++run.attempted;
      const core::RoundMetrics expected = round_trip(ctx, traced, engine, run);
      const core::RoundMetrics next = engine->run_round();
      if (csv_row(expected) != csv_row(next)) {
        run.fail("restored engine diverged from the original after the final checkpoint");
      }
    }
  } catch (const std::exception& e) {
    run.fail(std::string("exception after round ") + std::to_string(run.metrics.size()) +
             ": " + e.what());
  }
  run.wall_s = elapsed();
  run.cpu_s = cpu_seconds() - cpu_start;
  return run;
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Tail latency. Within each replica, the highest percentile that still
/// has at least ten samples beyond it: the 11th-largest sample, at
/// percentile 100·(n−10)/n. The run reports the median over replicas, so
/// one replica caught by a host stall does not set the figure.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;  ///< median over replicas
  std::size_t samples = 0;    ///< over all replicas
};

Tail tail(const std::vector<double>& values, const std::vector<std::size_t>& replica_of) {
  std::vector<std::vector<double>> groups;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (replica_of[i] >= groups.size()) groups.resize(replica_of[i] + 1);
    groups[replica_of[i]].push_back(values[i]);
  }
  std::vector<double> tails;
  std::vector<double> percentiles;
  for (std::vector<double>& v : groups) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    tails.push_back(n <= 10 ? v.back() : v[n - 11]);
    percentiles.push_back(n <= 10 ? 100.0
                                  : 100.0 * static_cast<double>(n - 10) / static_cast<double>(n));
  }
  return {median(tails), median(percentiles), values.size()};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Reference chunks either side of a round that set its speed scale.
constexpr std::size_t kScaleWindow = 16;

/// Speed scale of each timed round of a run: kReferenceChunkNs
/// over the median reference chunk within kScaleWindow rounds either side,
/// in the same replica. A host time times its scale reads as the time at
/// the reference speed.
std::vector<double> speed_scales(const RunResult& run) {
  const std::size_t n = run.ref_ns.size();
  std::vector<double> out(n, 1.0);
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    while (end < n && run.round_replica[end] == run.round_replica[begin]) ++end;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t lo = i >= begin + kScaleWindow ? i - kScaleWindow : begin;
      const std::size_t hi = std::min(end, i + kScaleWindow + 1);
      out[i] = perfbench::kReferenceChunkNs /
               median(std::vector<double>(run.ref_ns.begin() + static_cast<std::ptrdiff_t>(lo),
                                          run.ref_ns.begin() + static_cast<std::ptrdiff_t>(hi)));
    }
  }
  return out;
}

/// A replica on a host this many times slower than the reference stops
/// once its outcome window is complete.
constexpr double kSlowHostCap = 3.0;

/// Reference chunks run before and after each replica's set-up.
constexpr int kSetupProbes = 16;

double setup_scale(std::vector<double> probes_ns) {
  return perfbench::kReferenceChunkNs / median(std::move(probes_ns));
}

template <typename F>
std::vector<double> series(const std::vector<RoundSpan>& spans, F&& ns_of) {
  std::vector<double> out;
  out.reserve(spans.size());
  for (const RoundSpan& s : spans) out.push_back(ns_of(s));
  return out;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(36) << m.name << std::right << std::setw(18)
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
}

/// CRC-32 of the metrics CSV of every replica's outcome window.
std::string results_digest(const std::vector<core::RoundMetrics>& rows) {
  std::ostringstream os;
  core::write_metrics_csv(os, rows);
  const std::string csv = os.str();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x",
                snapshot::detail::crc32(reinterpret_cast<const std::uint8_t*>(csv.data()),
                                        csv.size()));
  return buf;
}

/// Simulated outcomes over the outcome windows: deterministic for a seed.
std::vector<Metric> sim_metrics(const std::vector<core::RoundMetrics>& rows) {
  double stddev = 0.0;
  double cost = 0.0;
  double space = 0.0;
  double satisfaction = 0.0;
  for (const core::RoundMetrics& m : rows) {
    stddev += m.workload_stddev_after;
    cost += m.migration_cost;
    space += static_cast<double>(m.search_space);
    satisfaction += m.flow_satisfaction;
  }
  const double rounds = static_cast<double>(std::max<std::size_t>(rows.size(), 1));
  return {{"balance_stddev_pct", "%", stddev / rounds},
          {"migration_cost_per_round", "cost/round", cost / rounds},
          {"search_space_per_round", "count/round", space / rounds},
          {"flow_satisfaction", "ratio", satisfaction / rounds}};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- per-layer report ------------------------------------------------------------

struct LayerReport {
  std::vector<Metric> json;    ///< the per_layer metrics of BENCHMARK.json
  std::vector<Metric> detail;  ///< layers a workload may not run at all
};

LayerReport layer_report(const RunResult& traced, const RunResult& untraced,
                         const std::vector<double>& setup_topology_s,
                         const std::vector<double>& setup_engine_s) {
  const auto& sp = traced.spans;
  const auto p50 = [&](auto ns_of) {
    return median(series(sp, [&](const RoundSpan& s) { return ms(ns_of(s.children)); }));
  };
  std::vector<std::size_t> replica_of;
  for (const RoundSpan& s : sp) replica_of.push_back(s.replica);
  const auto tail_of = [&](auto ns_of) {
    return tail(series(sp, [&](const RoundSpan& s) { return ms(ns_of(s.children)); }),
                replica_of)
        .value;
  };
  const Counters& c = traced.counters;
  double rejects = 0.0;
  double requests = 0.0;
  double drops = 0.0;
  double retries = 0.0;
  for (const core::RoundMetrics& m : traced.metrics) {
    rejects += static_cast<double>(m.migration_rejects);
    requests += static_cast<double>(m.migration_requests);
    drops += static_cast<double>(m.protocol_drops);
    retries += static_cast<double>(m.protocol_retries);
  }
  const double rounds = static_cast<double>(std::max<std::size_t>(sp.size(), 1));
  const double all_rounds = static_cast<double>(std::max<std::size_t>(traced.metrics.size(), 1));
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  double self_ms_total = 0.0;
  for (const RoundSpan& s : sp) {
    allocs += s.allocs;
    alloc_bytes += s.alloc_bytes;
    self_ms_total += s.self_ms();
  }
  std::vector<double> serialize_ms;
  std::vector<double> restore_ms;
  std::vector<double> snapshot_bytes;
  std::uint64_t snapshot_ns = 0;
  for (const SnapshotSpan& s : traced.snapshots) {
    serialize_ms.push_back(ms(s.serialize_ns));
    restore_ms.push_back(ms(s.restore_ns));
    snapshot_bytes.push_back(static_cast<double>(s.bytes));
    if (s.timed) snapshot_ns += s.serialize_ns + s.restore_ns;
  }

  // Layer shares of the traced run's timed engine time: rounds plus the
  // checkpoint round trips of the loop.
  // Nested layers overlap: the k-median solve runs inside the decision span.
  Phases sum;
  std::uint64_t round_total = 0;
  for (const RoundSpan& s : sp) {
    const Phases& p = s.children;
    sum.fault += p.fault;
    sum.workload += p.workload;
    sum.fair_share += p.fair_share;
    sum.queue += p.queue;
    sum.predict += p.predict;
    sum.kmedian += p.kmedian;
    sum.decision += p.decision;
    sum.commit += p.commit;
    round_total += s.duration();
  }
  const double total_ms = ms(round_total + snapshot_ns);
  const auto share = [&](double part_ms) { return 100.0 * ratio(part_ms, total_ms); };

  // Same rounds, same seeds: the traced/untraced difference is the
  // overhead, both at the reference speed.
  const auto scaled_ns = [](const RunResult& run) {
    const std::vector<double> scales = speed_scales(run);
    double total = 0.0;
    for (std::size_t i = 0; i < run.round_ns.size(); ++i) {
      total += static_cast<double>(run.round_ns[i]) * scales[i];
    }
    return total;
  };

  LayerReport r;
  r.json = {
      {"workload_route.ms_p50", "ms", p50([](const Phases& p) { return p.workload; })},
      {"workload_route.ms_tail", "ms", tail_of([](const Phases& p) { return p.workload; })},
      {"net.router.path_hit_ratio", "ratio",
       ratio(static_cast<double>(c.path_hits), static_cast<double>(c.path_hits + c.path_misses))},
      {"net.router.tree_hit_ratio", "ratio",
       ratio(static_cast<double>(c.tree_hits), static_cast<double>(c.tree_hits + c.tree_misses))},
      {"net.fair_share.ms_p50", "ms", p50([](const Phases& p) { return p.fair_share; })},
      {"net.fair_share.ms_tail", "ms", tail_of([](const Phases& p) { return p.fair_share; })},
      {"net.fair_share.build_ms_p50", "ms",
       p50([](const Phases& p) { return p.fair_share_build; })},
      {"net.fair_share.fill_ms_p50", "ms", p50([](const Phases& p) { return p.fair_share_fill; })},
      {"net.fair_share.reuse_ratio", "ratio",
       ratio(static_cast<double>(c.fs_reused), static_cast<double>(c.fs_reused + c.fs_affected))},
      {"net.fair_share.full_rebuilds", "count", static_cast<double>(c.fs_full_rebuilds)},
      {"net.queue.ms_p50", "ms", p50([](const Phases& p) { return p.queue; })},
      {"core.predict.ms_p50", "ms", p50([](const Phases& p) { return p.predict; })},
      {"core.predict.ms_tail", "ms", tail_of([](const Phases& p) { return p.predict; })},
      {"core.manage.ms_p50", "ms", p50([](const Phases& p) { return p.manage; })},
      {"core.manage.ms_tail", "ms", tail_of([](const Phases& p) { return p.manage; })},
      {"core.claim_commit_ratio", "ratio",
       ratio(static_cast<double>(c.commits), static_cast<double>(c.claims))},
      {"migration.decision.ms_p50", "ms", p50([](const Phases& p) { return p.decision; })},
      {"migration.decision.ms_tail", "ms", tail_of([](const Phases& p) { return p.decision; })},
      {"migration.reject_share", "ratio", ratio(rejects, requests)},
      {"migration.cost_pruned_ratio", "ratio",
       ratio(static_cast<double>(c.cost_pruned),
             static_cast<double>(c.cost_evaluated + c.cost_pruned))},
      {"fault.protocol_drops_per_round", "count/round", drops / all_rounds},
      {"fault.protocol_retries_per_round", "count/round", retries / all_rounds},
      {"snapshot.serialize_ms", "ms", median(serialize_ms)},
      {"snapshot.restore_ms", "ms", median(restore_ms)},
      {"snapshot.bytes", "bytes", median(snapshot_bytes)},
      {"obs.round_self_ms_p50", "ms",
       median(series(sp, [](const RoundSpan& s) { return s.self_ms(); }))},
      {"core.cpu_per_wall", "ratio", ratio(traced.cpu_s, traced.wall_s)},
      {"alloc.per_round", "count/round", static_cast<double>(allocs) / rounds},
      {"alloc.bytes_per_round", "bytes/round", static_cast<double>(alloc_bytes) / rounds},
      {"setup.topology_s", "s", median(setup_topology_s)},
      {"setup.engine_s", "s", median(setup_engine_s)},
      {"trace.overhead_pct", "%",
       100.0 * (ratio(scaled_ns(traced), scaled_ns(untraced)) - 1.0)},
      {"share.net_pct", "%", share(ms(sum.workload + sum.fair_share + sum.queue))},
      {"share.predict_pct", "%", share(ms(sum.predict))},
      {"share.decision_pct", "%", share(ms(sum.decision))},
      {"share.commit_pct", "%", share(ms(sum.commit))},
      {"share.kmedian_pct", "%", share(ms(sum.kmedian))},
      {"share.fault_pct", "%", share(ms(sum.fault))},
      {"share.snapshot_pct", "%", share(ms(snapshot_ns))},
      {"share.obs_pct", "%", share(self_ms_total)},
  };
  r.detail = {
      {"core.propose.shard_ms_sum_p50", "ms", p50([](const Phases& p) { return p.propose_sum; })},
      {"core.commit.ms_p50", "ms", p50([](const Phases& p) { return p.commit; })},
      {"core.commit.ms_tail", "ms", tail_of([](const Phases& p) { return p.commit; })},
      {"graph.kmedian.ms_p50", "ms", p50([](const Phases& p) { return p.kmedian; })},
      {"graph.kmedian.ms_tail", "ms", tail_of([](const Phases& p) { return p.kmedian; })},
      {"fault.ms_p50", "ms", p50([](const Phases& p) { return p.fault; })},
      {"fault.ms_tail", "ms", tail_of([](const Phases& p) { return p.fault; })},
  };
  return r;
}

void write_spans(const std::string& path, const std::string& provenance, const RunResult& traced,
                 const LayerReport& report) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  os << "{\n\"provenance\": " << provenance << ",\n\"rounds\": [\n";
  for (std::size_t i = 0; i < traced.spans.size(); ++i) {
    const RoundSpan& s = traced.spans[i];
    const Phases& p = s.children;
    os << (i > 0 ? ",\n" : "") << "{\"replica\": " << s.replica
       << ", \"start_ms\": " << json_number(ms(s.start_ns))
       << ", \"end_ms\": " << json_number(ms(s.end_ns)) << ", \"children_ms\": {"
       << "\"fault\": " << json_number(ms(p.fault))
       << ", \"workload_route\": " << json_number(ms(p.workload))
       << ", \"fair_share\": " << json_number(ms(p.fair_share))
       << ", \"fair_share_build\": " << json_number(ms(p.fair_share_build))
       << ", \"fair_share_fill\": " << json_number(ms(p.fair_share_fill))
       << ", \"queue\": " << json_number(ms(p.queue))
       << ", \"predict\": " << json_number(ms(p.predict))
       << ", \"manage\": " << json_number(ms(p.manage))
       << ", \"kmedian\": " << json_number(ms(p.kmedian))
       << ", \"decision\": " << json_number(ms(p.decision))
       << ", \"commit\": " << json_number(ms(p.commit))
       << ", \"propose_sum\": " << json_number(ms(p.propose_sum))
       << "}, \"self_ms\": " << json_number(s.self_ms()) << ", \"allocs\": " << s.allocs
       << ", \"alloc_bytes\": " << s.alloc_bytes << "}";
  }
  os << "\n],\n\"snapshots\": [\n";
  for (std::size_t i = 0; i < traced.snapshots.size(); ++i) {
    const SnapshotSpan& s = traced.snapshots[i];
    os << (i > 0 ? ",\n" : "") << "{\"at_round\": " << s.at_round
       << ", \"serialize_ms\": " << json_number(ms(s.serialize_ns))
       << ", \"restore_ms\": " << json_number(ms(s.restore_ns)) << ", \"bytes\": " << s.bytes
       << "}";
  }
  std::vector<Metric> all = report.json;
  all.insert(all.end(), report.detail.begin(), report.detail.end());
  os << "\n],\n\"layer_metrics\": " << json_metrics(all) << "\n}\n";
  if (!os) throw std::runtime_error("failed writing spans to " + path);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

/// Sets up every replica, runs the closed loop and prints the result.
/// Returns the exit code.
int measure(const Options& opt, const Workload& spec, const std::string& provenance,
            common::ThreadPool& pool) {
  const std::size_t replicas = spec.replicas;
  // The untraced run lasts --seconds (half of it when a traced replay
  // follows) at the reference speed: each replica runs a fixed number of
  // rounds sized from the workload's rate there. A fixed count keeps the
  // measured rounds, and the memory they build up, the same on every host.
  const double budget = static_cast<double>(opt.seconds) / (opt.trace ? 2.0 : 1.0);
  const double share = budget / static_cast<double>(replicas);
  const std::size_t rounds = perfbench::rounds_per_replica(spec, share);

  // Replicas run one after another, each on its own deployment (and fault
  // plan) seeded from --seed; pooling them keeps one input's quirks from
  // moving the run's figures. Each replica's set-up — topology build plus
  // engine construction, prewarmed cost rows and the k-median planner
  // included — is one set-up sample, scaled by reference chunks run just
  // before and after it.
  std::vector<double> topology_s;
  std::vector<double> engine_s;
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  RunResult untraced;
  RunResult traced;
  std::vector<core::RoundMetrics> window;
  std::vector<core::RoundMetrics> traced_window;
  for (std::size_t r = 0; r < replicas; ++r) {
    Workload w = spec;
    const std::uint64_t seed = opt.seed * replicas + r;
    w.deploy.seed = seed;
    std::vector<double> probes;
    for (int k = 0; k < kSetupProbes; ++k) {
      probes.push_back(static_cast<double>(perfbench::reference_chunk_ns()));
    }
    const auto t0 = Clock::now();
    const topo::Topology topology = topo::build_fat_tree(w.fabric);
    const auto t1 = Clock::now();
    std::optional<fault::FaultPlan> plan;
    if (w.fault_drill) plan = perfbench::make_fault_plan(topology, seed, perfbench::kMaxRounds);
    const Context ctx{&w, &topology, plan ? &*plan : nullptr, &pool};
    const auto t2 = Clock::now();
    std::unique_ptr<core::DistributedEngine> engine = make_engine(ctx, false);
    const auto t3 = Clock::now();
    for (int k = 0; k < kSetupProbes; ++k) {
      probes.push_back(static_cast<double>(perfbench::reference_chunk_ns()));
    }
    const double scale = setup_scale(std::move(probes));
    topology_s.push_back(static_cast<double>(ns_between(t0, t1)) / 1e9 * scale);
    engine_s.push_back(static_cast<double>(ns_between(t2, t3)) / 1e9 * scale);
    setup_s.push_back(topology_s.back() + engine_s.back());
    raw_setup_s.push_back(setup_s.back() / scale);
    if (r == 0) {
      std::cout << "fabric: " << topology.name() << ", " << topology.node_count() << " nodes, "
                << engine->deployment().vm_count() << " VMs, " << engine->flows().size()
                << " flows per replica\n";
    }

    RunResult run = run_loop(ctx, std::move(engine), rounds, kSlowHostCap * share,
                             false, r);
    if (run.failed == 0 && run.metrics.size() >= w.sim_rounds) {
      window.insert(window.end(), run.metrics.begin(), run.metrics.begin() + w.sim_rounds);
    }
    if (opt.trace && run.failed == 0) {
      perfbench::set_alloc_counting(true);
      RunResult replay = run_loop(ctx, make_engine(ctx, true), run.metrics.size(), 0.0, true, r);
      perfbench::set_alloc_counting(false);
      if (replay.metrics.size() >= w.sim_rounds) {
        traced_window.insert(traced_window.end(), replay.metrics.begin(),
                             replay.metrics.begin() + w.sim_rounds);
      }
      traced.merge(std::move(replay));
    }
    untraced.merge(std::move(run));
  }

  const std::size_t attempted = untraced.attempted + traced.attempted;
  const std::size_t failed = untraced.failed + traced.failed;
  std::vector<std::string> failures = untraced.failures;
  failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
  const std::size_t expected_rows = replicas * spec.sim_rounds;
  const std::string digest = results_digest(window);
  bool correct = failed == 0;
  if (window.size() != expected_rows) {
    correct = false;
    failures.push_back("the run did not complete every replica's outcome window");
  }
  if (opt.trace && correct && results_digest(traced_window) != digest) {
    correct = false;
    failures.push_back("the traced run diverged from the untraced run");
  }

  std::vector<Metric> out;
  if (!opt.trace) {
    // Host times at the reference speed (scaled) and as measured (raw).
    const std::vector<double> scales = speed_scales(untraced);
    std::vector<double> round_ms;
    std::vector<double> raw_round_ms;
    std::vector<double> busy_s(replicas, 0.0);
    std::vector<double> raw_busy_s(replicas, 0.0);
    std::vector<std::size_t> timed_rounds(replicas, 0);
    for (std::size_t i = 0; i < untraced.round_ns.size(); ++i) {
      const std::size_t r = untraced.round_replica[i];
      const double busy = static_cast<double>(untraced.round_ns[i] + untraced.trip_ns[i]) / 1e9;
      raw_round_ms.push_back(ms(untraced.round_ns[i]));
      round_ms.push_back(raw_round_ms.back() * scales[i]);
      raw_busy_s[r] += busy;
      busy_s[r] += busy * scales[i];
      ++timed_rounds[r];
    }
    // Rounds per second: each replica's timed rounds over the host time of
    // their run_round() calls and checkpoint round trips; the median over
    // replicas.
    const auto rounds_per_s = [&](const std::vector<double>& busy) {
      std::vector<double> per_replica;
      for (std::size_t r = 0; r < replicas; ++r) {
        per_replica.push_back(ratio(static_cast<double>(timed_rounds[r]), busy[r]));
      }
      return median(per_replica);
    };
    const Tail t = tail(round_ms, untraced.round_replica);
    out = {{"rounds_per_s", "1/s", rounds_per_s(busy_s)},
           {"round_p50_ms", "ms", median(round_ms)},
           {"round_tail_ms", "ms", t.value},
           {"setup_s", "s", median(setup_s)},
           {"peak_rss_mb", "MB", peak_rss_mb()}};
    const std::vector<Metric> sim = sim_metrics(window);
    out.insert(out.end(), sim.begin(), sim.end());
    std::vector<double> ref_us;
    for (std::uint64_t ns : untraced.ref_ns) ref_us.push_back(static_cast<double>(ns) / 1e3);
    std::cout << "rounds: " << untraced.metrics.size() << " over " << replicas << " replicas in "
              << std::setprecision(4) << untraced.wall_s << " s wall, "
              << untraced.round_ns.size() << " timed after warm-up ("
              << untraced.snapshots.size() << " checkpoint round trips)\n"
              << "round_tail_ms: median over replicas of each one's p" << t.percentile << " ("
              << t.samples << " timed rounds in all)\n"
              << "host speed: median reference chunk " << median(ref_us) << " us against "
              << perfbench::kReferenceChunkNs / 1e3 << " us nominal; unscaled rounds_per_s "
              << rounds_per_s(raw_busy_s) << ", round_p50_ms " << median(raw_round_ms)
              << ", round_tail_ms " << tail(raw_round_ms, untraced.round_replica).value
              << ", setup_s " << median(raw_setup_s) << "\n";
    std::cout << "round_fail_share: "
              << ratio(static_cast<double>(failed), static_cast<double>(attempted)) << " ("
              << failed << " of " << attempted << ")\n";
    print_metrics(
        "end-to-end (host time at the reference speed; the last four simulated over the "
        "outcome windows):",
        out);
  } else if (correct) {
    const LayerReport report = layer_report(traced, untraced, topology_s, engine_s);
    out = report.json;
    std::cout << "traced run: " << traced.spans.size() << " rounds, "
              << traced.snapshots.size() << " checkpoint round trips\n";
    print_metrics("per-layer (traced run):", out);
    print_metrics("per-layer, workload-specific layers (zero where the layer does not run):",
                  report.detail);
    if (!opt.spans_path.empty()) {
      try {
        write_spans(opt.spans_path, provenance, traced, report);
        std::cout << "spans: " << opt.spans_path << "\n";
      } catch (const std::exception& e) {
        correct = false;
        failures.push_back(e.what());
      }
    }
  }
  std::cout << "results_digest: " << spec.name << " seed=" << opt.seed
            << " rounds=" << expected_rows << " crc32=" << (correct ? digest : "incomplete")
            << "\n";
  for (const std::string& f : failures) std::cout << "FAILED: " << f << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": " << json_metrics(out) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t nproc = online_cpus();
  const Options opt = parse_options(argc, argv, nproc);
  const std::optional<Workload> workload = perfbench::make_workload(opt.workload, opt.scale);
  if (!workload) {
    std::string names;
    for (const std::string& n : perfbench::workload_names()) names += " " + n;
    usage_error("unknown workload '" + opt.workload + "' (one of:" + names + ")");
  }

  // Guard rails: numbers from a debug build or with the CI's forced
  // fail-fast auditor are not comparable, so refuse to time them.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "sheriff_perfbench: refusing to time a '" << PERFBENCH_BUILD_TYPE
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (const char* forced = std::getenv("SHERIFF_FORCE_AUDIT"); forced != nullptr && *forced) {
    std::cerr << "sheriff_perfbench: refusing to time with SHERIFF_FORCE_AUDIT set (it forces "
                 "the fail-fast auditor into every engine)\n";
    return 3;
  }

#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const std::string provenance =
      "{\"workload\": " + json_string(workload->name) + ", \"seed\": " +
      std::to_string(opt.seed) + ", \"replicas\": " + std::to_string(workload->replicas) +
      ", \"seconds\": " + std::to_string(opt.seconds) + ", \"trace\": " +
      (opt.trace ? "1" : "0") +
      ", \"scale\": " + (opt.scale == Scale::kTiny ? "\"tiny\"" : "\"full\"") +
      ", \"nproc\": " + std::to_string(nproc) + ", \"pool_threads\": " +
      std::to_string(opt.pool) + ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + json_string(compiler) + ", \"commit\": " + json_string(opt.commit) +
      ", \"load\": \"closed loop, 1 client\"}";
  std::cout << "provenance: " << provenance << "\n" << std::flush;

  common::ThreadPool pool(opt.pool);
  // With a one-thread pool the client runs on the pool's worker, where
  // every parallel sweep of the engine runs inline: a round is one
  // thread's serial work, with no hand-offs to idle cores.
  if (opt.pool == 1) {
    return pool.submit([&] { return measure(opt, *workload, provenance, pool); }).get();
  }
  return measure(opt, *workload, provenance, pool);
}
