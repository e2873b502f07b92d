// Counting replacements of every replaceable global allocation function.
// Deallocation needs no bookkeeping: the benchmark reports allocations and
// requested bytes per round, not live heap size (peak RSS covers that).

#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

void tally(std::size_t size) noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_malloc(std::size_t size) noexcept {
  tally(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  tally(size);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

namespace perfbench {

AllocTotals alloc_totals() noexcept {
  return {g_count.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

void set_alloc_counting(bool on) noexcept { g_counting.store(on, std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
