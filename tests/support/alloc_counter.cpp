#include "support/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

// Replacing the global operator new/delete pair affects the whole test
// binary, so the implementation stays minimal (malloc/free plus a relaxed
// counter) and thread-safe. The nothrow forms (std::stable_sort's buffer
// comes from one) are replaced too and count alike: their memory is freed
// through the replaced delete, so leaving them to the library would pair a
// library new with this free. The aligned overloads are untouched and keep
// their default pairing.
namespace {
std::atomic<long> g_allocations{0};
}

// GCC pairs the replaced operator new (malloc-backed) with the library
// delete at some inlined call sites and reports -Wmismatched-new-delete;
// the pairing here is intentional and consistent, so silence it locally.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace mempart::testsupport {

long allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace mempart::testsupport
