#include "net/fair_share.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "common/require.hpp"
#include "obs/registry.hpp"
#include "obs/timing.hpp"
#include "snapshot/archive.hpp"

namespace sheriff::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr std::uint32_t kNoComp = 0xffffffffU;
}  // namespace

double FairShareResult::available_bandwidth(const topo::Topology& topo,
                                            topo::LinkId link) const {
  SHERIFF_REQUIRE(link < link_load_gbps.size(), "link id out of range for fair-share result");
  return std::max(0.0, topo.link(link).capacity_gbps - link_load_gbps[link]);
}

// --- FairShareSolver --------------------------------------------------------

FairShareSolver::FairShareSolver(const topo::Topology& topo) : topo_(&topo) {
  link_state_.resize(topo.link_count());
  for (topo::LinkId l = 0; l < link_state_.size(); ++l) {
    link_state_[l].capacity = topo.link(l).capacity_gbps;
  }
  link_flow_count_.resize(topo.link_count());
  link_parent_.resize(topo.link_count());
  link_comp_.resize(topo.link_count());
}

const FairShareResult& FairShareSolver::solve(std::span<Flow> flows,
                                              const topo::LivenessMask* liveness) {
  if (liveness != nullptr && liveness->all_up()) liveness = nullptr;
  obs::Stopwatch phase_watch;
  const std::size_t n = flows.size();
  ++stats_.solves;
  ++stats_.full_rebuilds;
  stats_.dirty_flows += n;
  stats_.affected_flows += n;

  build_incidence(flows, liveness);
  label_components();
  timings_.build_ns += phase_watch.elapsed_ns();

  phase_watch.restart();
  sort_by_demand();
  result_.flow_rate.assign(n, 0.0);
  frozen_.assign(n, 0);
  for (std::uint32_t c = 0; c < comp_count_; ++c) fill_component(c);
  // Loads accumulate in ascending flow order after the fill, so they never
  // depend on the order in which flows froze.
  result_.link_load_gbps.assign(link_state_.size(), 0.0);
  result_.link_utilization.assign(link_state_.size(), 0.0);
  for (const std::uint32_t f : participants_) {
    for (const topo::LinkId l : links_of(f)) result_.link_load_gbps[l] += result_.flow_rate[f];
  }
  for (const topo::LinkId l : active_links_) {
    result_.link_utilization[l] = result_.link_load_gbps[l] / link_state_[l].capacity;
  }
  timings_.fill_ns += phase_watch.elapsed_ns();

  for (std::size_t f = 0; f < n; ++f) flows[f].allocated_gbps = result_.flow_rate[f];
  return result_;
}

void FairShareSolver::build_incidence(std::span<const Flow> flows,
                                      const topo::LivenessMask* liveness) {
  const std::size_t n = flows.size();
  flow_link_offset_.resize(n + 1);
  flow_links_.clear();
  participants_.clear();
  demand_.resize(n);
  std::fill(link_flow_count_.begin(), link_flow_count_.end(), 0);
  std::iota(link_parent_.begin(), link_parent_.end(), topo::LinkId{0});
  std::fill(link_comp_.begin(), link_comp_.end(), kNoComp);
  result_.link_offered_gbps.assign(link_state_.size(), 0.0);
  const auto usable = [&](topo::LinkId l) { return liveness->link_usable(*topo_, l); };

  for (std::size_t f = 0; f < n; ++f) {
    const Flow& flow = flows[f];
    flow_link_offset_[f] = static_cast<std::uint32_t>(flow_links_.size());

    // Participation: routed (has links), positive effective demand, every
    // link usable.
    const std::span<const topo::LinkId> links = flow.links;
    const double demand = flow.effective_demand();
    demand_[f] = demand;
    if (links.empty() || !(demand > 0.0)) continue;
    if (liveness != nullptr && !std::ranges::all_of(links, usable)) continue;

    participants_.push_back(static_cast<std::uint32_t>(f));
    flow_links_.insert(flow_links_.end(), links.begin(), links.end());
    for (const topo::LinkId l : links) {
      ++link_flow_count_[l];
      result_.link_offered_gbps[l] += demand;
    }
    // Union the flow's links: a flow glues every link it crosses into one
    // component of the sharing graph.
    const topo::LinkId root = find_link_root(links[0]);
    for (const topo::LinkId l : links.subspan(1)) link_parent_[find_link_root(l)] = root;
  }
  flow_link_offset_[n] = static_cast<std::uint32_t>(flow_links_.size());
}

topo::LinkId FairShareSolver::find_link_root(topo::LinkId l) noexcept {
  while (link_parent_[l] != l) {
    link_parent_[l] = link_parent_[link_parent_[l]];  // path halving
    l = link_parent_[l];
  }
  return l;
}

void FairShareSolver::label_components() {
  const std::size_t link_count = link_state_.size();

  // Component ids in order of each component's lowest flow id.
  comp_count_ = 0;
  flow_comp_.resize(demand_.size());
  for (const std::uint32_t f : participants_) {
    const topo::LinkId root = find_link_root(flow_links_[flow_link_offset_[f]]);
    if (link_comp_[root] == kNoComp) link_comp_[root] = comp_count_++;
    flow_comp_[f] = link_comp_[root];
  }

  // Component→flow and component→link CSRs (ascending ids within a
  // component), each component's heap slice (|links| + Σ path lengths
  // entries), and the canonical link→flow CSR.
  comp_flow_offset_.assign(comp_count_ + 1, 0);
  comp_link_offset_.assign(comp_count_ + 1, 0);
  comp_heap_base_.assign(comp_count_ + 1, 0);
  for (const std::uint32_t f : participants_) {
    ++comp_flow_offset_[flow_comp_[f] + 1];
    comp_heap_base_[flow_comp_[f] + 1] += flow_link_offset_[f + 1] - flow_link_offset_[f];
  }
  link_flow_offset_.resize(link_count + 1);
  active_links_.resize(link_count);
  std::uint32_t flow_refs = 0;
  std::size_t active = 0;
  for (topo::LinkId l = 0; l < link_count; ++l) {
    link_flow_offset_[l] = flow_refs;
    flow_refs += link_flow_count_[l];
    active_links_[active] = l;
    active += link_flow_count_[l] != 0 ? 1 : 0;
  }
  link_flow_offset_[link_count] = flow_refs;
  active_links_.resize(active);
  for (const std::uint32_t f : participants_) {
    for (const topo::LinkId l : links_of(f)) link_comp_[l] = flow_comp_[f];
  }
  for (const topo::LinkId l : active_links_) ++comp_link_offset_[link_comp_[l] + 1];
  for (std::uint32_t c = 0; c < comp_count_; ++c) {
    comp_heap_base_[c + 1] += comp_link_offset_[c + 1];
    comp_flow_offset_[c + 1] += comp_flow_offset_[c];
    comp_link_offset_[c + 1] += comp_link_offset_[c];
    comp_heap_base_[c + 1] += comp_heap_base_[c];
  }
  comp_links_.resize(active_links_.size());
  cursor_.assign(comp_link_offset_.begin(), comp_link_offset_.end() - 1);
  for (const topo::LinkId l : active_links_) comp_links_[cursor_[link_comp_[l]]++] = l;
  link_flows_.resize(flow_links_.size());
  cursor_.assign(link_flow_offset_.begin(), link_flow_offset_.end() - 1);
  for (const std::uint32_t f : participants_) {
    for (const topo::LinkId l : links_of(f)) link_flows_[cursor_[l]++] = f;
  }
  heap_level_.resize(comp_heap_base_[comp_count_]);
  heap_link_.resize(comp_heap_base_[comp_count_]);
}

void FairShareSolver::sort_by_demand() {
  // A stable LSD radix sort over the demands' IEEE-754 bits (positive
  // doubles order like their bit patterns), fed in ascending flow order:
  // exactly the (effective demand, flow id) order.
  const std::size_t count = participants_.size();
  sort_a_.resize(count);
  sort_b_.resize(count);
  std::array<std::array<std::uint32_t, 256>, 8> histogram{};
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t f = participants_[i];
    const auto key = std::bit_cast<std::uint64_t>(demand_[f]);
    sort_a_[i] = SortEntry{key, f};
    for (std::size_t d = 0; d < 8; ++d) ++histogram[d][(key >> (8 * d)) & 0xffU];
  }
  SortEntry* from = sort_a_.data();
  SortEntry* to = sort_b_.data();
  for (std::size_t d = 0; d < 8 && count > 0; ++d) {
    std::array<std::uint32_t, 256>& bucket = histogram[d];
    const auto shift = static_cast<unsigned>(8 * d);
    if (bucket[(from[0].key >> shift) & 0xffU] == count) continue;  // one digit value: no-op pass
    std::uint32_t sum = 0;
    for (std::uint32_t& b : bucket) sum += std::exchange(b, sum);
    for (std::size_t i = 0; i < count; ++i) to[bucket[(from[i].key >> shift) & 0xffU]++] = from[i];
    std::swap(from, to);
  }
  // A stable distribution keeps every component's slice in that order.
  comp_order_.resize(count);
  cursor_.assign(comp_flow_offset_.begin(), comp_flow_offset_.end() - 1);
  for (std::size_t i = 0; i < count; ++i) {
    comp_order_[cursor_[flow_comp_[from[i].flow]]++] = from[i].flow;
  }
}

void FairShareSolver::fill_component(std::uint32_t c) {
  const std::span<const std::uint32_t> order{
      comp_order_.data() + comp_flow_offset_[c],
      static_cast<std::size_t>(comp_flow_offset_[c + 1] - comp_flow_offset_[c])};
  const std::span<const topo::LinkId> comp_links{
      comp_links_.data() + comp_link_offset_[c],
      static_cast<std::size_t>(comp_link_offset_[c + 1] - comp_link_offset_[c])};
  LinkState* const link = link_state_.data();

  // Link-event min-heap with lazy invalidation: an entry is stale when the
  // link re-pushed at a newer level or drained of active flows. Capacity
  // |links| + |edges|: one initial push per link, one re-push per (frozen
  // flow × its links). Its exact push/pop sequence and comparisons are part
  // of the result contract: they decide which of several links saturating
  // at the same level pops first (DESIGN.md §13). A pop parks +inf in the
  // slot past the last entry, so each sift-down step picks the smaller
  // child without a branch — the child the two-sided test would pick.
  double* heap_level = heap_level_.data() + comp_heap_base_[c];
  topo::LinkId* heap_link = heap_link_.data() + comp_heap_base_[c];
  std::size_t heap_len = 0;
  const auto heap_push = [&](double level, topo::LinkId l) {
    std::size_t i = heap_len++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_level[parent] <= level) break;
      heap_level[i] = heap_level[parent];
      heap_link[i] = heap_link[parent];
      i = parent;
    }
    heap_level[i] = level;
    heap_link[i] = l;
  };
  const auto heap_pop = [&] {
    --heap_len;
    const double last_level = heap_level[heap_len];
    const topo::LinkId last_link = heap_link[heap_len];
    heap_level[heap_len] = kInf;
    std::size_t i = 0;
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= heap_len) break;
      const std::size_t child =
          left + static_cast<std::size_t>(heap_level[left + 1] < heap_level[left]);
      if (heap_level[child] >= last_level) break;
      heap_level[i] = heap_level[child];
      heap_link[i] = heap_link[child];
      i = child;
    }
    if (heap_len > 0) {
      heap_level[i] = last_level;
      heap_link[i] = last_link;
    }
  };

  double water = 0.0;
  for (const topo::LinkId l : comp_links) {
    LinkState& state = link[l];
    state.frozen_load = 0.0;
    state.active = link_flow_count_[l];
    state.level = state.capacity / static_cast<double>(state.active);
    heap_push(state.level, l);
  }

  std::size_t remaining = order.size();
  std::size_t si = 0;
  while (remaining > 0) {
    while (si < order.size() && frozen_[order[si]] != 0) ++si;
    const double demand_event = si < order.size() ? demand_[order[si]] : kInf;
    while (heap_len > 0 &&
           (link[heap_link[0]].active == 0 || heap_level[0] != link[heap_link[0]].level)) {
      heap_pop();
    }
    const double link_event = heap_len > 0 ? heap_level[0] : kInf;
    SHERIFF_REQUIRE(demand_event < kInf || link_event < kInf,
                    "water-filling failed to make progress");
    // The event freezes either the next flow in demand order at its demand
    // or, when a link saturates first, every still-active flow crossing it
    // at its saturation level, in canonical (ascending flow id) order.
    // Demand events freeze first on a tie — either order yields the same
    // rate, the reference freezes both kinds in the same pass.
    std::span<const std::uint32_t> to_freeze;
    double rate = 0.0;
    if (demand_event <= link_event) {
      to_freeze = order.subspan(si++, 1);
      rate = demand_event;
    } else {
      const topo::LinkId l = heap_link[0];
      heap_pop();
      to_freeze = {link_flows_.data() + link_flow_offset_[l],
                   static_cast<std::size_t>(link_flow_offset_[l + 1] - link_flow_offset_[l])};
      rate = link_event;
    }
    for (const std::uint32_t f : to_freeze) {
      if (frozen_[f] != 0) continue;
      frozen_[f] = 1;
      result_.flow_rate[f] = rate;
      --remaining;
      for (const topo::LinkId l : links_of(f)) {
        LinkState& state = link[l];
        state.frozen_load += rate;
        if (--state.active > 0) {
          double level =
              (state.capacity - state.frozen_load) / static_cast<double>(state.active);
          if (level < water) level = water;  // mirrors the reference's max(inc, 0)
          state.level = level;
          heap_push(level, l);
        }
      }
    }
    water = rate;
  }
}

std::size_t FairShareSolver::arena_bytes() const noexcept {
  // Logical sizes only (live element counts, not vector capacities): after
  // a solve the value is a pure function of the flow table, so the gauge is
  // identical across a checkpoint resume.
  const auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  return bytes(link_state_) + bytes(participants_) + bytes(flow_link_offset_) +
         bytes(flow_links_) + bytes(demand_) + bytes(flow_comp_) + bytes(link_flow_count_) +
         bytes(link_parent_) + bytes(link_comp_) + bytes(link_flow_offset_) +
         bytes(active_links_) + bytes(link_flows_) + bytes(comp_flow_offset_) +
         bytes(comp_order_) + bytes(comp_link_offset_) + bytes(comp_links_) +
         bytes(comp_heap_base_) + bytes(cursor_) + bytes(frozen_) + bytes(heap_level_) +
         bytes(heap_link_) + bytes(sort_a_) + bytes(sort_b_);
}

void FairShareSolver::Stats::checkpoint(snapshot::Archive& ar) {
  ar.u64(solves);
  ar.u64(full_rebuilds);
  ar.u64(dirty_flows);
  ar.u64(affected_flows);
  ar.u64(reused_flows);
}

void FairShareSolver::checkpoint(snapshot::Archive& ar) { stats_.checkpoint(ar); }

void FairShareSolver::publish_metrics(obs::MetricRegistry& registry) const {
  registry.gauge("fair_share.solves").set(static_cast<double>(stats_.solves));
  registry.gauge("fair_share.full_rebuilds").set(static_cast<double>(stats_.full_rebuilds));
  registry.gauge("fair_share.dirty_flows").set(static_cast<double>(stats_.dirty_flows));
  registry.gauge("fair_share.affected_flows").set(static_cast<double>(stats_.affected_flows));
  registry.gauge("fair_share.reused_flows").set(static_cast<double>(stats_.reused_flows));
  registry.gauge("fair_share.components").set(static_cast<double>(comp_count_));
  registry.gauge("fair_share.arena_bytes").set(static_cast<double>(arena_bytes()));
}

}  // namespace sheriff::net
