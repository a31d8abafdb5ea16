#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/metrics.h"

namespace mempart::obs {

int Histogram::bucket_index(std::int64_t value) noexcept {
  const std::uint64_t v =
      value <= 0 ? 0 : static_cast<std::uint64_t>(value);
  if (v < static_cast<std::uint64_t>(kSubBucketCount)) {
    return static_cast<int>(v);
  }
  // v in [2^k, 2^(k+1)) with k >= kSubBucketBits: drop the low bits until
  // kSubBucketBits significant bits remain; the result lies in
  // [kSubBucketCount/2, kSubBucketCount), giving kSubBucketCount/2
  // sub-buckets per octave and a relative error <= 2/kSubBucketCount.
  const int exp = std::bit_width(v) - kSubBucketBits;  // >= 1
  const auto sub = static_cast<std::int64_t>(v >> exp);
  return static_cast<int>(kSubBucketCount +
                          (exp - 1) * (kSubBucketCount / 2) +
                          (sub - kSubBucketCount / 2));
}

std::int64_t Histogram::bucket_upper_bound(int index) noexcept {
  if (index < kSubBucketCount) return index;
  const int off = index - static_cast<int>(kSubBucketCount);
  const int exp = off / static_cast<int>(kSubBucketCount / 2) + 1;
  const std::int64_t sub =
      kSubBucketCount / 2 + off % static_cast<int>(kSubBucketCount / 2);
  // Largest v with (v >> exp) == sub; computed unsigned because the top
  // bucket's bound is exactly INT64_MAX and (sub + 1) << exp touches 2^63.
  return static_cast<std::int64_t>(
      ((static_cast<std::uint64_t>(sub) + 1) << exp) - 1);
}

void Histogram::record(std::int64_t value, std::int64_t samples) noexcept {
  if (samples < 1) return;
  const std::int64_t v = value < 0 ? 0 : value;
  const auto n = static_cast<std::uint64_t>(samples);
  buckets_[static_cast<size_t>(bucket_index(v))].fetch_add(
      n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  // Unsigned product: a sum past INT64_MAX wraps instead of being UB.
  sum_.fetch_add(static_cast<std::int64_t>(static_cast<std::uint64_t>(v) * n),
                 std::memory_order_relaxed);
  std::int64_t seen = min_.load(std::memory_order_relaxed);
  while (v < seen &&
         !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  snap.count =
      static_cast<std::int64_t>(count_.load(std::memory_order_relaxed));
  snap.sum = sum_.load(std::memory_order_relaxed);
  const std::int64_t min = min_.load(std::memory_order_relaxed);
  const std::int64_t max = max_.load(std::memory_order_relaxed);
  snap.min = min == std::numeric_limits<std::int64_t>::max() ? 0 : min;
  snap.max = max < 0 ? 0 : max;
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::int64_t>::max(),
             std::memory_order_relaxed);
  max_.store(-1, std::memory_order_relaxed);
}

std::int64_t HistogramSnapshot::quantile(double q) const {
  if (count <= 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest value with at least ceil(q * count)
  // observations at or below it (rank 1 for q = 0).
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(clamped * static_cast<double>(count))));
  // The rank-1 and rank-count values are the tracked exact extremes; report
  // them directly instead of a bucket bound.
  if (rank <= 1) return min;
  if (rank >= count) return max;
  std::int64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += static_cast<std::int64_t>(buckets[i]);
    if (cumulative >= rank) {
      const std::int64_t bound =
          Histogram::bucket_upper_bound(static_cast<int>(i));
      return std::clamp(bound, min, max);
    }
  }
  return max;
}

LatencyTimer::LatencyTimer(std::string_view name)
    : hist_(histogram_if_enabled(name)) {
  if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
}

void LatencyTimer::stop() noexcept {
  if (hist_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  hist_->record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  hist_ = nullptr;
}

}  // namespace mempart::obs
