#include "obs/hub.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/archive.hpp"

namespace sheriff::obs {

namespace {

/// One metric kind: its count, then each metric's name and `fields(name)`
/// in name order. Saving takes the names from `for_each`; loading reads
/// them back, and `fields` creates each metric by name.
template <typename ForEach, typename Fields>
void checkpoint_kind(snapshot::Archive& ar, ForEach for_each, Fields fields) {
  std::vector<std::string> names;
  if (ar.saving()) for_each([&](const std::string& name, const auto&) { names.push_back(name); });
  std::uint64_t count = names.size();
  ar.count(count, 16);
  names.resize(count);
  for (std::string& name : names) {
    ar.str(name);
    fields(name);
  }
}

}  // namespace

ObservationHub::ObservationHub(std::size_t shim_count, ObservationConfig config)
    : trace_(shim_count, config.trace_capacity_per_shim) {
  if (config.audit) {
    auditor_ = std::make_unique<InvariantAuditor>(config.audit_options);
    auditor_->attach(&trace_, &registry_);
  }
}

void ObservationHub::checkpoint(snapshot::Archive& ar) {
  checkpoint_kind(
      ar, [&](auto visit) { registry_.for_each_counter(visit); },
      [&](const std::string& name) {
        Counter& counter = registry_.counter(name);
        std::uint64_t value = counter.value();
        ar.u64(value);
        if (ar.loading()) {
          counter.reset();
          counter.add(value);
        }
      });
  checkpoint_kind(
      ar, [&](auto visit) { registry_.for_each_gauge(visit); },
      [&](const std::string& name) {
        Gauge& gauge = registry_.gauge(name);
        double value = gauge.value();
        ar.f64(value);
        if (ar.loading()) gauge.set(value);
      });
  checkpoint_kind(
      ar, [&](auto visit) { registry_.for_each_histogram(visit); },
      [&](const std::string& name) {
        // Bounds are fixed at registration, so a load reads them before
        // it creates the histogram.
        std::vector<double> bounds;
        std::vector<std::uint64_t> counts;
        std::uint64_t total = 0;
        double sum = 0.0;
        if (ar.saving()) {
          const Histogram& h = *registry_.find_histogram(name);
          bounds.assign(h.bounds().begin(), h.bounds().end());
          counts.assign(h.counts().begin(), h.counts().end());
          total = h.total();
          sum = h.sum();
        }
        ar.f64v(bounds);
        ar.u64v(counts);
        ar.u64(total);
        ar.f64(sum);
        if (ar.loading()) {
          ar.check(registry_.histogram(name, std::move(bounds))
                       .restore(std::move(counts), total, sum),
                   "checkpoint histogram '" + name + "' does not match this build's buckets");
        }
      });
  trace_.checkpoint(ar);
  ar.expect_bool(auditor_ != nullptr, "corrupt observability section");
  if (auditor_ != nullptr) auditor_->checkpoint(ar);
}

}  // namespace sheriff::obs
