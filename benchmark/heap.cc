// Peak live heap, counted by replacing the global allocation functions in
// this executable, which the simulator libraries link into. The peak
// depends only on the sequence of allocations, so it repeats from process
// to process where the kernel's resident-set high-water mark does not:
// heap fragmentation moves VmHWM of allreduce_memo between 40 and 49 MB
// across processes that run identical inputs (README.md).
//
// The unaligned array, nothrow and sized forms reach these through
// libstdc++'s defaults, which call operator new(size_t) and
// operator delete(void*).
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "benchmark.h"

namespace esim::bench {

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
// Live bytes at the last reset; written only between runs.
std::int64_t g_base = 0;

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

void* aligned(std::size_t n, std::align_val_t a) {
  const auto align = static_cast<std::size_t>(a);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n + align - 1) / align * align;
  return counted(std::aligned_alloc(align, size == 0 ? align : size));
}

}  // namespace

double heap_peak_mb() {
  return static_cast<double>(g_peak.load(std::memory_order_relaxed) - g_base) /
         (1024.0 * 1024.0);
}

void reset_heap_peak() {
  g_base = g_live.load(std::memory_order_relaxed);
  g_peak.store(g_base, std::memory_order_relaxed);
}

}  // namespace esim::bench

void* operator new(std::size_t n) {
  return esim::bench::counted(std::malloc(n == 0 ? 1 : n));
}
void operator delete(void* p) noexcept { esim::bench::release(p); }
void operator delete(void* p, std::size_t) noexcept {
  esim::bench::release(p);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return esim::bench::aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return esim::bench::aligned(n, a);
}
void operator delete(void* p, std::align_val_t) noexcept {
  esim::bench::release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  esim::bench::release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  esim::bench::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  esim::bench::release(p);
}
