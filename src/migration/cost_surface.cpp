#include "migration/cost_surface.hpp"

#include <algorithm>

namespace sheriff::mig {

void CostSurface::build(const net::FairShareResult* shares, double reserve_fraction,
                        double request_gbps, double threshold_gbps) {
  const std::size_t links = topo_->link_count();
  b_.resize(links);
  p_.resize(links);
  usable_.resize(links);
  for (topo::LinkId l = 0; l < links; ++l) {
    const double capacity = topo_->link(l).capacity_gbps;
    double available = capacity;
    if (shares != nullptr) {
      available = std::max(shares->available_bandwidth(*topo_, l),
                           reserve_fraction * capacity);
    }
    // B(e): the smaller of available and requested bandwidth, which must
    // clear the threshold B_t for the link to be usable.
    const double b = std::min(available, request_gbps);
    b_[l] = b;
    p_[l] = b / capacity;
    usable_[l] = b > threshold_gbps ? 1 : 0;
  }
  host_usable_.assign(topo_->node_count(), 0);
  for (topo::NodeId n = 0; n < topo_->node_count(); ++n) {
    for (const topo::LinkId l : topo_->links_of(n)) {
      if (usable_[l] != 0) {
        host_usable_[n] = 1;
        break;
      }
    }
  }
}

}  // namespace sheriff::mig
