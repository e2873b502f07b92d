#pragma once
// ObservationHub: the one object the engine owns when observability is on.
// Bundles the event trace, the metric registry, and (optionally) the
// invariant auditor, wired together so auditor violations land in the
// trace and the registry. The engine holds a null hub when
// EngineConfig::observe is false — that is the zero-cost-disabled path.

#include <cstddef>
#include <memory>

#include "obs/auditor.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sheriff::obs {

struct ObservationConfig {
  std::size_t trace_capacity_per_shim = 4096;
  bool audit = false;            ///< run the invariant auditor each round
  AuditOptions audit_options{};  ///< only consulted when audit is true
};

class ObservationHub {
 public:
  ObservationHub(std::size_t shim_count, ObservationConfig config);

  [[nodiscard]] EventTrace& trace() noexcept { return trace_; }
  [[nodiscard]] const EventTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] MetricRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricRegistry& registry() const noexcept { return registry_; }

  /// Null when auditing is off.
  [[nodiscard]] InvariantAuditor* auditor() noexcept { return auditor_.get(); }
  [[nodiscard]] const InvariantAuditor* auditor() const noexcept { return auditor_.get(); }

  /// Checkpoint hook, the payload of the engine's OBSR section: the
  /// registry (counters, gauges, histograms, each kind in name order),
  /// the trace rings and the auditor's tallies. Loading creates each
  /// metric by name; the auditor must be present on both sides.
  void checkpoint(snapshot::Archive& ar);

 private:
  EventTrace trace_;
  MetricRegistry registry_;
  std::unique_ptr<InvariantAuditor> auditor_;
};

}  // namespace sheriff::obs
