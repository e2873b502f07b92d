#include "graph/kmedian.hpp"

#include "common/require.hpp"

namespace sheriff::graph::detail {

void validate(const KMedianInstance& instance) {
  SHERIFF_REQUIRE(instance.distance != nullptr, "instance needs a distance matrix");
  SHERIFF_REQUIRE(instance.k >= 1, "k must be at least 1");
  SHERIFF_REQUIRE(instance.k <= instance.facilities.size(), "k exceeds facility count");
  const std::size_t n = instance.distance->size();
  for (std::size_t c : instance.clients) SHERIFF_REQUIRE(c < n, "client out of range");
  for (std::size_t f : instance.facilities) SHERIFF_REQUIRE(f < n, "facility out of range");
}

}  // namespace sheriff::graph::detail
