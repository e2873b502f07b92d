#pragma once
// Max–min fair bandwidth allocation (progressive filling / water-filling)
// over routed flows. This produces the per-link signals the management
// algorithms consume: available bandwidth B(e), utilization rate P(e), and
// per-flow achieved rate.
//
// FairShareSolver is the one implementation. Every solve is canonical:
// one pass over the flow table in ascending flow order reads each flow's
// link ids (written by the router with its path), builds a flat CSR
// incidence of the participating flows and labels the connected
// components of the flow–link sharing graph (union–find over links).
// Each component is then water-filled by an event-driven kernel that
// processes links in saturation order (no per-level fabric re-scan), one
// component after another in ascending order. The fill stays split by
// component although it is serial: each component's event heap fixes the
// tie order of its link events, so the split is part of the result. See
// DESIGN.md §7 for the equivalence argument and §13 for the flat layout
// and the kernel's determinism contract. The from-scratch
// progressive-filling reference it is checked against lives in the test
// oracles (tests/oracles/fair_share.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "net/flow.hpp"
#include "snapshot/fwd.hpp"
#include "topology/liveness.hpp"
#include "topology/topology.hpp"

namespace sheriff::obs {
class MetricRegistry;
}

namespace sheriff::net {

struct FairShareResult {
  std::vector<double> flow_rate;         ///< indexed by position in the input span
  std::vector<double> link_load_gbps;    ///< indexed by LinkId: sum of allocated rates
  std::vector<double> link_offered_gbps; ///< indexed by LinkId: sum of *demands*
  std::vector<double> link_utilization;  ///< load / capacity, in [0, 1]

  /// B(e): capacity minus allocated load.
  [[nodiscard]] double available_bandwidth(const topo::Topology& topo, topo::LinkId link) const;
};

/// Per-round max–min solver. Call solve() once per round with the flow
/// table. Each call solves from the table and the liveness mask alone, so
/// the allocation is a pure function of them — independent of earlier
/// calls and of whether the solver was just restored from a checkpoint.
/// Flows without links (unrouted) get rate zero. With a liveness mask,
/// flows whose links cross a dead link/node are also rated zero (the
/// engine re-routes them on fault events; this is the safety net for the
/// same round the fault hits).
///
/// The allocation matches the oracle's from-scratch max_min_fair_share on
/// the same inputs to floating-point noise (the differential tests bound
/// it at 1e-9): a max–min allocation decomposes over connected components
/// of the flow–link sharing graph, and the event-driven fill freezes flows
/// at the same water levels the reference reaches by progressive
/// increments. Its
/// bits are pinned too: sums run in ascending flow order and the link
/// events in the binary heap's exact push/pop sequence (DESIGN.md §13).
class FairShareSolver {
 public:
  /// Cumulative counters. Every solve rebuilds everything and refills
  /// every flow, so `full_rebuilds` equals `solves`, `dirty_flows` and
  /// `affected_flows` each grow by the flow count, and `reused_flows`
  /// stays 0.
  struct Stats {
    std::size_t solves = 0;
    std::size_t full_rebuilds = 0;
    std::size_t dirty_flows = 0;
    std::size_t affected_flows = 0;
    std::size_t reused_flows = 0;

    /// The five counters in declaration order (FAIR v3, and the auditor's
    /// copy of the previous round's stats in OBSR).
    void checkpoint(snapshot::Archive& ar);
  };

  /// Cumulative wall time split of solve(): `build` covers participation,
  /// the incidence, component labelling and the reverse CSR; `fill`
  /// covers the demand sort, the water-filling kernel and the final load
  /// accumulation. Not serialized — a resumed run restarts the clocks,
  /// like core::PhaseProfile.
  struct Timings {
    std::uint64_t build_ns = 0;
    std::uint64_t fill_ns = 0;
  };

  /// The topology must outlive the solver and must not change after it.
  explicit FairShareSolver(const topo::Topology& topo);

  /// Computes the allocation for `flows` and writes each flow's
  /// allocated_gbps. The returned reference stays valid (and is updated in
  /// place) until the next solve().
  const FairShareResult& solve(std::span<Flow> flows,
                               const topo::LivenessMask* liveness = nullptr);

  [[nodiscard]] const FairShareResult& result() const noexcept { return result_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Timings& timings() const noexcept { return timings_; }

  /// Connected components of the flow–link sharing graph in the last
  /// solve (0 before the first).
  [[nodiscard]] std::size_t component_count() const noexcept { return comp_count_; }

  /// Logical bytes of the solver's arrays: sized from live element counts,
  /// not vector capacities, so after a solve the value is a pure function
  /// of the flow table and the liveness mask (deterministic across a
  /// checkpoint resume).
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

  /// Publishes the cumulative Stats plus the component / arena gauges as
  /// `fair_share.*`.
  void publish_metrics(obs::MetricRegistry& registry) const;

  /// Checkpoint hook. Only the cumulative Stats are serialized (FAIR v3):
  /// they are all a solve carries to the next, which depends on the flow
  /// table alone, so every per-solve array resumes cold (DESIGN.md §10).
  void checkpoint(snapshot::Archive& ar);

 private:
  /// The ascending-flow pass: participation, incidence, per-link active
  /// counts and offered sums, link union–find.
  void build_incidence(std::span<const Flow> flows, const topo::LivenessMask* liveness);
  /// Component ids (numbered by their lowest flow id), the component→flow
  /// and component→link CSRs, and the canonical link→flow CSR.
  void label_components();
  /// Orders every component's flows by (effective demand, flow id).
  void sort_by_demand();
  /// Event-driven water-fill of component `c`, writing only its flows'
  /// rates and its links' scratch.
  void fill_component(std::uint32_t c);
  /// Union–find root of an active link (path halving).
  topo::LinkId find_link_root(topo::LinkId l) noexcept;

  [[nodiscard]] std::span<const topo::LinkId> links_of(std::uint32_t f) const noexcept {
    return {flow_links_.data() + flow_link_offset_[f],
            flow_link_offset_[f + 1] - flow_link_offset_[f]};
  }

  /// Per-link water-fill state. The kernel reads and writes these fields
  /// together, so they share one 32-byte slot.
  struct LinkState {
    double capacity = 0.0;     ///< C(e), copied once from the topology
    double frozen_load = 0.0;  ///< Σ rates of frozen flows on the link
    double level = 0.0;        ///< latest pushed saturation level
    std::uint32_t active = 0;  ///< participating flows not yet frozen
  };

  const topo::Topology* topo_;
  FairShareResult result_;
  Stats stats_;
  Timings timings_;
  std::vector<LinkState> link_state_;

  // Per-solve flat state, rebuilt by every solve.
  std::vector<std::uint32_t> participants_;      ///< ascending flow ids
  std::vector<std::uint32_t> flow_link_offset_;  ///< flow count + 1; empty for idle flows
  std::vector<topo::LinkId> flow_links_;
  std::vector<double> demand_;                   ///< effective demand per flow
  std::vector<std::uint32_t> flow_comp_;
  std::vector<std::uint32_t> link_flow_count_;   ///< participating flows per link
  std::vector<topo::LinkId> link_parent_;        ///< union–find over links
  std::vector<std::uint32_t> link_comp_;
  std::vector<topo::LinkId> active_links_;       ///< links with a participating flow, ascending
  std::vector<std::uint32_t> link_flow_offset_;  ///< link count + 1
  std::vector<std::uint32_t> link_flows_;        ///< ascending flow id per link
  std::uint32_t comp_count_ = 0;
  std::vector<std::uint32_t> comp_flow_offset_;
  std::vector<std::uint32_t> comp_order_;        ///< per component: (demand, flow id) order
  std::vector<std::uint32_t> comp_link_offset_;
  std::vector<topo::LinkId> comp_links_;         ///< per component: ascending link id
  std::vector<std::size_t> comp_heap_base_;      ///< comp count + 1, into the heap arrays
  std::vector<std::uint32_t> cursor_;            ///< counting-sort placement scratch

  // Water-fill scratch. Components are link- and flow-disjoint, so each
  // fill writes only its own entries.
  std::vector<std::uint8_t> frozen_;
  std::vector<double> heap_level_;  ///< event heap, one slice per component
  std::vector<topo::LinkId> heap_link_;
  struct SortEntry {
    std::uint64_t key;  ///< the demand's IEEE-754 bits
    std::uint32_t flow;
  };
  std::vector<SortEntry> sort_a_;
  std::vector<SortEntry> sort_b_;
};

}  // namespace sheriff::net
