#pragma once
// Process-wide allocation tally. alloc_count.cpp replaces the global
// operator new/delete family of the benchmark binary (and only of it — the
// engine libraries are untouched) with versions that forward to
// malloc/free. While counting is on they also bump two relaxed atomic
// counters; while it is off, as in the untimed-run default, an allocation
// costs one extra load.

#include <cstdint>

namespace perfbench {

struct AllocTotals {
  std::uint64_t count = 0;  ///< operator new calls since process start
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

[[nodiscard]] AllocTotals alloc_totals() noexcept;

/// Turns the tally on or off for every thread; it starts off.
void set_alloc_counting(bool on) noexcept;

}  // namespace perfbench
