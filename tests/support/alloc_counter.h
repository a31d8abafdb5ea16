// Process-wide allocation counter for zero-allocation warm-path pins.
//
// The companion .cpp replaces the global operator new/delete pair for the
// whole test binary (there can only be one replacement per program, so the
// counter lives here instead of in each test file that wants a pin). Tests
// sample allocation_count() before and after the code under test and
// assert the delta is zero.
#pragma once

namespace mempart::testsupport {

/// Number of operator new / operator new[] calls (throwing or nothrow)
/// since process start.
/// Monotonic; sample before/after and compare deltas.
[[nodiscard]] long allocation_count() noexcept;

}  // namespace mempart::testsupport
