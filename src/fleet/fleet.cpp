#include "fleet/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/timing.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"

namespace sheriff::fleet {

namespace {

// ---------------------------------------------------------------------------
// Grid fingerprint: endian-stable FNV-1a over the grid's identity. Feeds
// bytes explicitly (never raw struct memory) so the hash is the same on
// every host the manifest might travel to.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;

  void byte(std::uint8_t b) noexcept {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(std::string_view s) noexcept {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

// ---------------------------------------------------------------------------
// JSON helpers. Doubles are %.17g — the shortest-exact-enough decimal form,
// identical on every libc we build against — and strings are escaped per
// RFC 8259 (scenario names are the only free-form input).
std::string fmt_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

// ---------------------------------------------------------------------------
// Manifest payload (section FMAN v1). RunSummary fields travel in
// declaration order; doubles as bit patterns (f64), so a record read
// back from the manifest reproduces its JSONL line byte for byte.
constexpr std::uint32_t kManifestVersion = 1;

void checkpoint_record(snapshot::Archive& ar, RunRecord& r) {
  ar.u64(r.run_id);
  ar.str(r.scenario);
  ar.u64(r.seed);
  ar.u64(r.rounds);
  ar.u32(r.metrics_crc);
  ar.u32(r.checkpoint_crc);
  core::RunSummary& s = r.summary;
  ar.u64(s.rounds);
  ar.u64(s.total_alerts);
  ar.u64(s.total_migrations);
  ar.u64(s.total_reroutes);
  ar.f64(s.total_migration_cost);
  ar.f64(s.total_migration_seconds);
  ar.f64(s.total_downtime_seconds);
  ar.u64(s.total_search_space);
  ar.f64(s.first_stddev);
  ar.f64(s.last_stddev);
  ar.f64(s.mean_link_peak);
  ar.u64(s.rounds_with_failures);
  ar.u64(s.peak_orphaned_vms);
  ar.u64(s.total_recovery_migrations);
  ar.u64(s.total_protocol_drops);
  ar.u64(s.total_protocol_retries);
  std::uint64_t metrics = r.metrics.size();
  ar.count(metrics, 10);  // name length prefix + f64 + kind
  r.metrics.resize(metrics);
  for (MetricSample& m : r.metrics) {
    ar.str(m.name);
    ar.f64(m.value);
    ar.u8(m.kind);
    if (m.kind > MetricKind::kGauge) {
      throw snapshot::SnapshotError("fleet manifest: unknown metric kind " +
                                    std::to_string(static_cast<unsigned>(m.kind)));
    }
  }
  if (ar.loading()) {
    r.completed = true;
    r.from_manifest = true;
  }
}

void checkpoint_manifest(snapshot::Archive& ar, Manifest& m) {
  ar.begin_section("FMAN", kManifestVersion);
  ar.u64(m.grid_fingerprint);
  ar.u64(m.run_count);
  std::uint64_t records = m.completed.size();
  ar.count(records, 8 * 4);
  m.completed.resize(records);
  for (RunRecord& r : m.completed) checkpoint_record(ar, r);
  ar.end_section();
}

}  // namespace

// ---------------------------------------------------------------------------

std::vector<MetricSample> capture_metrics(const obs::MetricRegistry& registry) {
  std::vector<MetricSample> out;
  out.reserve(registry.size() * 2);
  registry.for_each_counter([&](const std::string& name, const obs::Counter& c) {
    out.push_back({name, static_cast<double>(c.value()), MetricKind::kCounter});
  });
  registry.for_each_gauge([&](const std::string& name, const obs::Gauge& g) {
    out.push_back({name, g.value(), MetricKind::kGauge});
  });
  registry.for_each_histogram([&](const std::string& name, const obs::Histogram& h) {
    out.push_back({name + ".count", static_cast<double>(h.total()), MetricKind::kCounter});
    out.push_back({name + ".sum", h.sum(), MetricKind::kCounter});
  });
  std::sort(out.begin(), out.end(), [](const MetricSample& a, const MetricSample& b) {
    return a.name != b.name ? a.name < b.name : a.kind < b.kind;
  });
  return out;
}

std::uint64_t SweepGrid::fingerprint() const {
  Fnv1a f;
  f.u64(scenarios.size());
  for (const ScenarioSpec& s : scenarios) {
    f.str(s.name);
    f.u64(s.rounds);
    if (s.topology != nullptr) {
      f.u64(s.topology->node_count());
      f.u64(s.topology->rack_count());
      f.u64(s.topology->host_count());
    } else {
      f.u64(0);
    }
    f.u64(static_cast<std::uint64_t>(s.config.mode));
    f.u64(static_cast<std::uint64_t>(s.config.protocol));
    f.u64(static_cast<std::uint64_t>(s.config.predictor));
    f.byte(s.fault_plan != nullptr || s.config.fault_plan != nullptr ? 1 : 0);
  }
  f.u64(seeds.size());
  for (std::uint64_t seed : seeds) f.u64(seed);
  return f.h;
}

std::string jsonl_line(const RunRecord& record) {
  std::string out = "{\"run_id\":" + std::to_string(record.run_id) + ",\"scenario\":";
  append_json_string(out, record.scenario);
  out += ",\"seed\":" + std::to_string(record.seed);
  out += ",\"rounds\":" + std::to_string(record.rounds);
  out += ",\"metrics_crc\":" + std::to_string(record.metrics_crc);
  out += ",\"checkpoint_crc\":" + std::to_string(record.checkpoint_crc);
  const core::RunSummary& s = record.summary;
  out += ",\"summary\":{";
  out += "\"rounds\":" + std::to_string(s.rounds);
  out += ",\"total_alerts\":" + std::to_string(s.total_alerts);
  out += ",\"total_migrations\":" + std::to_string(s.total_migrations);
  out += ",\"total_reroutes\":" + std::to_string(s.total_reroutes);
  out += ",\"total_migration_cost\":" + fmt_f64(s.total_migration_cost);
  out += ",\"total_migration_seconds\":" + fmt_f64(s.total_migration_seconds);
  out += ",\"total_downtime_seconds\":" + fmt_f64(s.total_downtime_seconds);
  out += ",\"total_search_space\":" + std::to_string(s.total_search_space);
  out += ",\"first_stddev\":" + fmt_f64(s.first_stddev);
  out += ",\"last_stddev\":" + fmt_f64(s.last_stddev);
  out += ",\"mean_link_peak\":" + fmt_f64(s.mean_link_peak);
  out += ",\"rounds_with_failures\":" + std::to_string(s.rounds_with_failures);
  out += ",\"peak_orphaned_vms\":" + std::to_string(s.peak_orphaned_vms);
  out += ",\"total_recovery_migrations\":" + std::to_string(s.total_recovery_migrations);
  out += ",\"total_protocol_drops\":" + std::to_string(s.total_protocol_drops);
  out += ",\"total_protocol_retries\":" + std::to_string(s.total_protocol_retries);
  out += "},\"metrics\":{";
  bool first = true;
  for (const MetricSample& m : record.metrics) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, m.name);
    out += ':';
    out += fmt_f64(m.value);
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------

void MetricAggregate::absorb(const RunRecord& record) {
  for (const MetricSample& m : record.metrics) {
    auto& [kind, samples] = series_[m.name];
    if (samples.empty()) kind = m.kind;
    samples.push_back(m.value);
  }
  ++runs_;
}

double MetricAggregate::quantile(const std::string& name, double q) const {
  const auto it = series_.find(name);
  if (it == series_.end()) return 0.0;
  return common::quantile(it->second.second, q);
}

std::vector<double> MetricAggregate::samples(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? std::vector<double>{} : it->second.second;
}

void MetricAggregate::merge_into(obs::MetricRegistry& registry) const {
  registry.counter("fleet.runs").add(runs_);
  for (const auto& [name, entry] : series_) {
    const auto& [kind, samples] = entry;
    if (kind == MetricKind::kCounter) {
      // Cross-run sums land in a gauge: histogram `.sum` flattenings are
      // fractional, and a double keeps them exact where a u64 counter
      // would truncate.
      double total = 0.0;
      for (double v : samples) total += v;
      registry.gauge(name).set(total);
    }
    registry.gauge(name + ".p50").set(common::quantile(samples, 0.50));
    registry.gauge(name + ".p95").set(common::quantile(samples, 0.95));
    registry.gauge(name + ".p99").set(common::quantile(samples, 0.99));
  }
}

std::string FleetReport::jsonl() const {
  std::string out;
  for (const RunRecord& r : runs) {
    if (!r.completed) continue;
    out += jsonl_line(r);
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------

Manifest load_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw snapshot::SnapshotError("cannot open fleet manifest: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  snapshot::Archive archive(std::move(bytes));
  Manifest m;
  checkpoint_manifest(archive, m);
  if (!archive.at_end()) {
    throw snapshot::SnapshotError("trailing bytes after fleet manifest: " + path);
  }
  return m;
}

void save_manifest(const std::string& path, Manifest& manifest) {
  snapshot::Archive archive;
  checkpoint_manifest(archive, manifest);

  // Atomic publish: a sweep killed mid-write leaves the previous manifest
  // intact, never a torn one — that is what makes --resume trustworthy.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw snapshot::SnapshotError("cannot write fleet manifest: " + tmp);
    const auto& bytes = archive.buffer();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw snapshot::SnapshotError("short write on fleet manifest: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw snapshot::SnapshotError("cannot publish fleet manifest: " + path);
  }
}

// ---------------------------------------------------------------------------

FleetReport run_sweep(const SweepGrid& grid, const FleetOptions& options) {
  for (const ScenarioSpec& s : grid.scenarios) {
    SHERIFF_REQUIRE(s.topology != nullptr, "fleet scenario needs a topology");
    SHERIFF_REQUIRE(s.rounds > 0, "fleet scenario needs at least one round");
  }
  SHERIFF_REQUIRE(!options.resume || !options.manifest_path.empty(),
                  "fleet resume needs a manifest path");

  const obs::Stopwatch sweep_clock;
  const std::size_t run_count = grid.run_count();
  const std::uint64_t fingerprint = grid.fingerprint();

  FleetReport report;
  report.runs.resize(run_count);
  for (std::size_t id = 0; id < run_count; ++id) {
    const ScenarioSpec& spec = grid.scenarios[id / grid.seeds.size()];
    RunRecord& r = report.runs[id];
    r.run_id = id;
    r.scenario = spec.name;
    r.seed = grid.seeds[id % grid.seeds.size()];
    r.rounds = spec.rounds;
  }

  Manifest manifest;
  manifest.grid_fingerprint = fingerprint;
  manifest.run_count = run_count;
  if (options.resume) {
    if (std::ifstream probe(options.manifest_path, std::ios::binary); probe) {
      probe.close();
      Manifest loaded = load_manifest(options.manifest_path);
      if (loaded.grid_fingerprint != fingerprint || loaded.run_count != run_count) {
        throw snapshot::SnapshotError(
            "fleet manifest does not match this sweep grid (fingerprint or run count "
            "differ): " +
            options.manifest_path);
      }
      for (RunRecord& r : loaded.completed) {
        if (r.run_id >= run_count) {
          throw snapshot::SnapshotError("fleet manifest records run " +
                                        std::to_string(r.run_id) + " beyond the grid");
        }
        const std::uint64_t id = r.run_id;
        report.runs[id] = std::move(r);
        ++report.skipped;
      }
      for (const RunRecord& r : report.runs) {
        if (r.completed) manifest.completed.push_back(r);
      }
    }
  }

  std::vector<std::uint64_t> pending;
  pending.reserve(run_count);
  for (std::size_t id = 0; id < run_count; ++id) {
    if (!report.runs[id].completed) pending.push_back(id);
  }

  common::ThreadPool fleet_pool(std::max<std::size_t>(1, options.workers));

  std::mutex commit_mutex;  // guards report.runs writes + manifest publishes
  std::atomic<std::size_t> budget_claims{0};

  const auto run_one = [&](std::uint64_t id) {
    if (options.max_runs > 0 &&
        budget_claims.fetch_add(1, std::memory_order_relaxed) >= options.max_runs) {
      return;  // budget exhausted: the run stays pending for a later --resume
    }
    const ScenarioSpec& spec = grid.scenarios[id / grid.seeds.size()];

    wl::DeploymentOptions deployment = spec.deployment;
    deployment.seed = grid.seeds[id % grid.seeds.size()];

    core::EngineConfig config = spec.config;
    if (spec.fault_plan != nullptr) config.fault_plan = spec.fault_plan;
    if (options.observe) config.observe = true;

    const obs::Stopwatch run_clock;
    core::DistributedEngine engine(*spec.topology, deployment, config);
    const std::vector<core::RoundMetrics> rounds = engine.run(spec.rounds);

    RunRecord record = report.runs[id];  // identity fields already filled
    std::ostringstream csv;
    core::write_metrics_csv(csv, rounds);
    const std::string csv_bytes = csv.str();
    record.metrics_crc = snapshot::detail::crc32(
        reinterpret_cast<const std::uint8_t*>(csv_bytes.data()), csv_bytes.size());
    if (options.keep_metrics_csv) record.metrics_csv = csv_bytes;
    if (options.checkpoint) {
      const std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(engine);
      record.checkpoint_crc = snapshot::detail::crc32(bytes.data(), bytes.size());
    }
    record.summary = core::summarize(rounds);
    if (const obs::ObservationHub* hub = engine.observation_hub(); hub != nullptr) {
      record.metrics = capture_metrics(hub->registry());
    }
    record.completed = true;
    record.from_manifest = false;
    record.seconds = run_clock.elapsed_seconds();

    std::scoped_lock lock(commit_mutex);
    report.runs[id] = std::move(record);
    ++report.executed;
    if (!options.manifest_path.empty()) {
      const auto at = std::lower_bound(
          manifest.completed.begin(), manifest.completed.end(), id,
          [](const RunRecord& r, std::uint64_t v) { return r.run_id < v; });
      manifest.completed.insert(at, report.runs[id]);
      save_manifest(options.manifest_path, manifest);
    }
  };

  common::parallel_for(fleet_pool, pending.size(),
                       [&](std::size_t i) { run_one(pending[i]); });

  for (const RunRecord& r : report.runs) {
    if (r.completed) report.aggregate.absorb(r);
  }
  report.pending = run_count - report.executed - report.skipped;
  report.seconds = sweep_clock.elapsed_seconds();

  if (!options.jsonl_path.empty()) {
    const std::string tmp = options.jsonl_path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw snapshot::SnapshotError("cannot write fleet JSONL: " + tmp);
      const std::string lines = report.jsonl();
      out.write(lines.data(), static_cast<std::streamsize>(lines.size()));
      if (!out) throw snapshot::SnapshotError("short write on fleet JSONL: " + tmp);
    }
    if (std::rename(tmp.c_str(), options.jsonl_path.c_str()) != 0) {
      throw snapshot::SnapshotError("cannot publish fleet JSONL: " + options.jsonl_path);
    }
  }
  return report;
}

}  // namespace sheriff::fleet
