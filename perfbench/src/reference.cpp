#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kSortedWords = 16 * 1024;      // 64 KiB: fits a per-core L2
constexpr std::size_t kRingWords = 1024 * 1024;      // 4 MiB: spills from L2 into L3
constexpr int kSearches = 1000;
constexpr int kRingSteps = 1000;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

struct Tables {
  std::vector<std::uint32_t> sorted;
  std::vector<std::uint32_t> ring;  ///< one cycle through every slot

  Tables() : sorted(kSortedWords), ring(kRingWords) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t& word : sorted) word = static_cast<std::uint32_t>(xorshift(x));
    std::sort(sorted.begin(), sorted.end());
    // Sattolo's shuffle of the identity gives a single cycle.
    for (std::size_t i = 0; i < kRingWords; ++i) ring[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kRingWords - 1; i > 0; --i) {
      std::swap(ring[i], ring[xorshift(x) % i]);
    }
  }
};

// Keeps the kernel's results observable so its loops are not optimised away.
volatile std::uint64_t g_sink = 0;

}  // namespace

std::uint64_t reference_chunk_ns() {
  static const Tables tables;
  // Untimed: bring both tables back into the caches, so the timed part does
  // not depend on what the engine's last round evicted.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kSortedWords; i += 16) acc += tables.sorted[i];
  for (std::size_t i = 0; i < kRingWords; i += 16) acc += tables.ring[i];

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t key = 99;
  for (int i = 0; i < kSearches; ++i) {
    const auto it = std::lower_bound(tables.sorted.begin(), tables.sorted.end(),
                                     static_cast<std::uint32_t>(xorshift(key)));
    acc += static_cast<std::uint64_t>(it - tables.sorted.begin());
  }
  std::uint32_t slot = static_cast<std::uint32_t>(acc % kRingWords);
  for (int i = 0; i < kRingSteps; ++i) slot = tables.ring[slot];
  const auto end = std::chrono::steady_clock::now();
  g_sink = acc + slot;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
}

}  // namespace perfbench
