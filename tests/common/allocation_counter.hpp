// Counting replacements of the global allocation functions, for the
// allocation gates (simulator replicates, NSGA-II generations, event
// ring segments): calls in g_allocations, requested bytes in
// g_allocated_bytes.
// Replacement functions are defined once per program, so include this
// from exactly one source file of a test binary. Every block counted
// here is malloc'd and freed with free(); the array forms either forward
// here or, under ASan and TSan, stay with the sanitizer runtime as a
// pair, so no allocation is ever released by a different allocator.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
// Once inlined next to a `new`, GCC flags this free() as mismatched; here
// the pairing is the point.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

