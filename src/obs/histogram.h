// The registry's one histogram type: a fixed-layout log-linear histogram
// with lock-free recording.
//
// obs::Histogram uses an HDR-style bucket layout fixed at compile time —
// values below kSubBucketCount land in exact unit buckets, larger values in
// log2 octaves split into kSubBucketCount/2 sub-buckets each, bounding the
// relative quantization error at 2/kSubBucketCount (~3.1%) — so every
// histogram in the process shares one layout and recording is a handful of
// relaxed atomic increments: no locks, no allocation, safe from any thread.
// It holds latencies (nanoseconds) and integer distributions alike: bank
// loads, probe counts, delta_P per candidate N, conflict cycles per group.
// record() takes an optional sample count, so a caller that knows many
// samples share one value (the simulator's conflict-free groups) records
// them in one call.
//
// Queries come from an immutable HistogramSnapshot: nearest-rank
// percentiles (p50/p90/p99/p999 or any quantile), count, sum, and *exact*
// min/max (tracked separately via CAS, not reconstructed from buckets). A
// snapshot taken while other threads record sees each counter atomically;
// the test suite races recorders against snapshots under TSan to pin this.
//
// LatencyTimer is the RAII instrumentation helper: construction resolves
// the named histogram from the Registry if metrics are enabled (one mutex'd
// map lookup), destruction records the elapsed steady-clock nanoseconds.
// Disabled-metrics cost is a thread-local read and a branch, matching the
// Span discipline in obs/trace.h.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace mempart::obs {

/// Immutable view of a Histogram, safe to query repeatedly.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  ///< dense, index = bucket index
  std::int64_t count = 0;
  std::int64_t sum = 0;   ///< sum of recorded values (ns for timers)
  std::int64_t min = 0;   ///< exact smallest recorded value; 0 when empty
  std::int64_t max = 0;   ///< exact largest recorded value; 0 when empty

  /// Nearest-rank quantile, q in [0, 1]. Returns the upper bound of the
  /// bucket holding the rank-ceil(q*count) value, clamped to [min, max] —
  /// exact for values < kSubBucketCount, within ~3.1% above. 0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;

  [[nodiscard]] std::int64_t p50() const { return quantile(0.50); }
  [[nodiscard]] std::int64_t p90() const { return quantile(0.90); }
  [[nodiscard]] std::int64_t p99() const { return quantile(0.99); }
  [[nodiscard]] std::int64_t p999() const { return quantile(0.999); }

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Lock-free log-bucketed histogram of non-negative int64 values
/// (negative inputs clamp to 0). All methods are safe from any thread.
class Histogram {
 public:
  /// Exact unit buckets cover [0, kSubBucketCount); each octave above is
  /// split into kSubBucketCount/2 sub-buckets.
  static constexpr int kSubBucketBits = 6;
  static constexpr std::int64_t kSubBucketCount = std::int64_t{1}
                                                  << kSubBucketBits;
  /// Octave groups needed to reach INT64_MAX (bit widths 7..63).
  static constexpr int kOctaves = 63 - kSubBucketBits;
  static constexpr int kNumBuckets =
      static_cast<int>(kSubBucketCount) +
      kOctaves * static_cast<int>(kSubBucketCount / 2);

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records `samples` observations of `value` (none when samples < 1):
  /// relaxed atomic increments only.
  void record(std::int64_t value, std::int64_t samples = 1) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  [[nodiscard]] std::int64_t count() const noexcept {
    return static_cast<std::int64_t>(count_.load(std::memory_order_relaxed));
  }

  /// Resets every counter. Not atomic with respect to concurrent record()
  /// calls; callers quiesce recorders first (tests, registry clear()).
  void reset() noexcept;

  /// Bucket index of `value` (clamped to >= 0). Exposed for tests.
  [[nodiscard]] static int bucket_index(std::int64_t value) noexcept;

  /// Largest value mapping to bucket `index` — the value quantile() reports
  /// for ranks landing there. Exposed for tests.
  [[nodiscard]] static std::int64_t bucket_upper_bound(int index) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{-1};
};

/// RAII timer recording elapsed steady-clock nanoseconds into a named
/// Histogram from the process Registry. Inert when metrics are disabled at
/// construction. The resolved histogram reference follows the
/// Registry::histogram() lifetime rule: valid until Registry::clear().
class LatencyTimer {
 public:
  explicit LatencyTimer(std::string_view name);
  ~LatencyTimer() { stop(); }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

  /// Records now instead of at scope exit. Idempotent.
  void stop() noexcept;

  /// True when this timer will record (metrics were on at construction).
  [[nodiscard]] bool active() const noexcept { return hist_ != nullptr; }

 private:
  Histogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mempart::obs
