// Counting global operator new for the traced run's allocs-per-record metric.
// Counting is off unless SetAllocationCounting(true); when off, the only cost
// is one relaxed load per allocation.
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace trips::perf {
uint64_t AllocationCount() { return g_allocations.load(std::memory_order_relaxed); }
void SetAllocationCounting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
}  // namespace trips::perf

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
