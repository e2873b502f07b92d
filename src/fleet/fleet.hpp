#pragma once
// Fleet runner (DESIGN.md §12): execute N independent engine runs — a
// (scenario × seed) grid — concurrently on a bounded worker pool, with
//
//   * per-run deterministic seeding (the grid cell fully determines the
//     run; nothing depends on scheduling),
//   * shared read-only fabrics (the topology is borrowed by pointer, and
//     every run on it reads its distance rows — Topology::distance_rows(),
//     built by the first engine — instead of building its own),
//   * per-run isolated obs registries merged into a MetricAggregate with
//     cross-run p50/p95/p99 quantiles,
//   * a JSONL result stream (one deterministic line per run, emitted in
//     run-id order whatever order the workers finished in), and
//   * a crash-resumable sweep manifest built on src/snapshot/: every
//     completed run is recorded with its metrics-CSV and checkpoint CRCs,
//     and FleetOptions::resume skips exactly the recorded runs.
//
// Determinism contract: the per-run outputs (metrics CSV bytes, final
// checkpoint bytes, registry snapshot, summary) are byte-identical for any
// worker count — the workers only decide *when* a run executes, never
// *what* it computes. Each engine runs its rounds serially on the fleet
// worker that executes it, so one run occupies one core.
// tests/test_fleet.cpp pins a 32-run grid at workers 1/2/8 against direct
// engines.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "obs/registry.hpp"

namespace sheriff::fleet {

/// How a run's registry values combine across the fleet: counters (and
/// histogram count/sum flattenings) are extensive — the aggregate sums
/// them — while gauges are per-run observations the aggregate quantiles.
enum class MetricKind : std::uint8_t { kCounter, kGauge };

struct MetricSample {
  std::string name;
  double value = 0.0;
  MetricKind kind = MetricKind::kGauge;

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

/// Name-sorted, kind-tagged flattening of one run's registry (histograms
/// contribute `.count` and `.sum` as counters). Deterministic: the same
/// run produces the same vector byte for byte.
std::vector<MetricSample> capture_metrics(const obs::MetricRegistry& registry);

/// One row of the sweep grid: a named scenario executed once per seed.
struct ScenarioSpec {
  std::string name;
  /// Borrowed; must outlive the sweep. Scenarios may share one topology,
  /// and with it one set of distance rows.
  const topo::Topology* topology = nullptr;
  /// Per-run deployment; `seed` is overridden by the grid seed.
  wl::DeploymentOptions deployment;
  /// Per-run engine config; `observe` is forced on when
  /// FleetOptions::observe is set.
  core::EngineConfig config;
  std::size_t rounds = 10;
  /// Optional deterministic fault schedule applied to every seed of this
  /// scenario (overrides config.fault_plan when set). Borrowed.
  const fault::FaultPlan* fault_plan = nullptr;
};

struct SweepGrid {
  std::vector<ScenarioSpec> scenarios;
  std::vector<std::uint64_t> seeds;

  [[nodiscard]] std::size_t run_count() const noexcept {
    return scenarios.size() * seeds.size();
  }
  /// Stable identity hash (FNV-1a over scenario names/rounds/topology
  /// shape/mode and the seed list). The manifest stores it so a resume
  /// against a *different* grid is rejected instead of silently mixing
  /// incompatible results. An identity check, not full config equality.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

struct FleetOptions {
  std::size_t workers = 1;  ///< fleet-level concurrency bound
  /// Force EngineConfig::observe on so every run has a registry to merge.
  bool observe = true;
  /// Serialize the final engine into a checkpoint and record its CRC.
  bool checkpoint = true;
  /// Retain each run's full metrics CSV in RunRecord::metrics_csv (tests
  /// byte-compare them; off by default to keep big sweeps lean).
  bool keep_metrics_csv = false;
  /// Sweep manifest path ("" = no manifest). Rewritten atomically (tmp +
  /// rename) after every completed run, so a killed sweep loses at most
  /// the runs that were still in flight.
  std::string manifest_path;
  /// Load `manifest_path` first and skip every run it records (their
  /// RunRecords are reconstructed from the manifest byte-exactly). A
  /// missing manifest file starts fresh; a fingerprint mismatch throws
  /// snapshot::SnapshotError.
  bool resume = false;
  /// Execute at most this many runs this invocation (0 = unlimited): the
  /// deterministic "kill the sweep after K runs" used by the resume tests.
  std::size_t max_runs = 0;
  /// Write the merged JSONL result stream here at sweep end ("" = skip).
  std::string jsonl_path;
};

/// One run's deterministic result. Identity fields are always filled;
/// result fields only when `completed`.
struct RunRecord {
  std::uint64_t run_id = 0;    ///< scenario_index * seeds.size() + seed_index
  std::string scenario;
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  std::uint32_t metrics_crc = 0;    ///< CRC-32 of the run's metrics CSV bytes
  std::uint32_t checkpoint_crc = 0; ///< CRC-32 of the final checkpoint (0 when skipped)
  core::RunSummary summary;
  std::vector<MetricSample> metrics;  ///< capture_metrics() of the run's registry
  bool completed = false;
  bool from_manifest = false;  ///< satisfied by --resume, not executed here
  double seconds = 0.0;        ///< wall clock; informational, never serialized
  std::string metrics_csv;     ///< only with FleetOptions::keep_metrics_csv
};

/// The run's JSONL line: one JSON object, no trailing newline. Built only
/// from deterministic RunRecord fields (never wall time), with doubles in
/// %.17g — so the line is byte-identical whether the run executed here, on
/// another worker count, or was replayed from a manifest.
std::string jsonl_line(const RunRecord& record);

/// Cross-run metric merger. absorb() runs in run-id order; quantiles are
/// exact (computed over the raw per-run samples via common::quantile, the
/// same brute force a test would do — that equality is pinned).
class MetricAggregate {
 public:
  void absorb(const RunRecord& record);

  [[nodiscard]] std::size_t runs() const noexcept { return runs_; }
  /// Exact q-quantile of `name` over the absorbed runs (0.0 when no run
  /// reported the metric; a single report is every quantile of itself).
  [[nodiscard]] double quantile(const std::string& name, double q) const;
  /// Raw per-run samples of `name`, in absorb order (empty when unknown).
  [[nodiscard]] std::vector<double> samples(const std::string& name) const;
  /// All series, name-sorted: (kind, samples in absorb order).
  [[nodiscard]] const std::map<std::string, std::pair<MetricKind, std::vector<double>>>&
  series() const noexcept {
    return series_;
  }

  /// Merges into an aggregate registry: counter-kind series sum into the
  /// `name` gauge (double-valued, so fractional histogram `.sum`
  /// flattenings stay exact); every series additionally publishes
  /// `name.p50/.p95/.p99` gauges; the run count lands in the `fleet.runs`
  /// counter.
  void merge_into(obs::MetricRegistry& registry) const;

 private:
  std::map<std::string, std::pair<MetricKind, std::vector<double>>> series_;
  std::size_t runs_ = 0;
};

/// A sweep's outcome. `runs` is indexed by run id and always grid-sized;
/// slots a killed sweep never reached have completed=false.
struct FleetReport {
  std::vector<RunRecord> runs;
  std::size_t executed = 0;  ///< runs executed by this invocation
  std::size_t skipped = 0;   ///< runs satisfied from the manifest
  std::size_t pending = 0;   ///< runs left undone (max_runs budget hit)
  double seconds = 0.0;      ///< sweep wall clock
  MetricAggregate aggregate; ///< merged registries of all completed runs

  /// The JSONL stream: completed runs in run-id order, one line each.
  [[nodiscard]] std::string jsonl() const;
};

/// Executes the grid. Throws common::RequirementError on a malformed grid
/// and snapshot::SnapshotError on a corrupt or mismatched manifest; an
/// exception from inside a run aborts the sweep (completed runs are
/// already in the manifest, so a crashed sweep resumes).
FleetReport run_sweep(const SweepGrid& grid, const FleetOptions& options);

/// The on-disk sweep manifest (exposed for tests/tools; run_sweep reads
/// and writes it through these).
struct Manifest {
  std::uint64_t grid_fingerprint = 0;
  std::uint64_t run_count = 0;
  std::vector<RunRecord> completed;  ///< ascending run_id
};

[[nodiscard]] Manifest load_manifest(const std::string& path);
/// Takes a mutable manifest because one checkpoint walk both writes and
/// reads its fields (snapshot::Archive); saving leaves it unchanged.
void save_manifest(const std::string& path, Manifest& manifest);

}  // namespace sheriff::fleet
