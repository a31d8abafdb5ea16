#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart::obs {
namespace {

// Nearest-rank reference: the value the histogram's quantile() approximates.
std::int64_t reference_quantile(std::vector<std::int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto count = static_cast<double>(values.size());
  auto rank = static_cast<size_t>(std::ceil(q * count));
  rank = std::max<size_t>(rank, 1);
  return values[std::min(rank, values.size()) - 1];
}

/// Worst-case relative quantization error of the bucket layout: octave
/// buckets span 1/(kSubBucketCount/2) of their lower bound.
constexpr double kMaxRelativeError =
    2.0 / static_cast<double>(Histogram::kSubBucketCount);

// CI's TSan job selects this suite by its name (`LatencyHistogram`).
TEST(LatencyHistogramTest, UnitBucketsAreExact) {
  for (std::int64_t v = 0; v < Histogram::kSubBucketCount; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::bucket_upper_bound(static_cast<int>(v)), v);
  }
}

TEST(LatencyHistogramTest, BucketIndexPins) {
  // First octave bucket: values 64..65 share index 64 (width 2).
  EXPECT_EQ(Histogram::bucket_index(64), 64);
  EXPECT_EQ(Histogram::bucket_index(65), 64);
  EXPECT_EQ(Histogram::bucket_index(66), 65);
  EXPECT_EQ(Histogram::bucket_index(127), 95);
  // Next octave: width doubles to 4.
  EXPECT_EQ(Histogram::bucket_index(128), 96);
  EXPECT_EQ(Histogram::bucket_index(131), 96);
  EXPECT_EQ(Histogram::bucket_index(132), 97);
  // Negative values clamp to the zero bucket.
  EXPECT_EQ(Histogram::bucket_index(-5), 0);
  // The extremes stay inside the table.
  EXPECT_LT(Histogram::bucket_index(
                std::numeric_limits<std::int64_t>::max()),
            Histogram::kNumBuckets);
}

TEST(LatencyHistogramTest, UpperBoundsRoundTripAndIncrease) {
  std::int64_t previous = -1;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const std::int64_t bound = Histogram::bucket_upper_bound(i);
    EXPECT_GT(bound, previous) << "bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(bound), i) << "bucket " << i;
    previous = bound;
  }
  EXPECT_EQ(Histogram::bucket_upper_bound(
                Histogram::kNumBuckets - 1),
            std::numeric_limits<std::int64_t>::max());
}

TEST(LatencyHistogramTest, EmptySnapshotIsAllZero) {
  Histogram hist;
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.p50(), 0);
  EXPECT_EQ(snap.quantile(0.999), 0);
}

TEST(LatencyHistogramTest, ExactStatsForSmallValues) {
  Histogram hist;
  for (const std::int64_t v : {5, 1, 9, 3, 7, 3, 60}) hist.record(v);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 7);
  EXPECT_EQ(snap.sum, 88);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 60);
  // Values below kSubBucketCount live in exact unit buckets, so every
  // quantile must equal the sorted-reference nearest-rank answer.
  const std::vector<std::int64_t> values{5, 1, 9, 3, 7, 3, 60};
  for (const double q : {0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(snap.quantile(q), reference_quantile(values, q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MinAndMaxAreExactForLargeValues) {
  Histogram hist;
  hist.record(123456789);
  hist.record(987654321);
  hist.record(555555555);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.min, 123456789);
  EXPECT_EQ(snap.max, 987654321);
  // Quantiles clamp to the exact extremes.
  EXPECT_EQ(snap.quantile(0.0), 123456789);
  EXPECT_EQ(snap.quantile(1.0), 987654321);
}

TEST(LatencyHistogramTest, PercentilesMatchSortedReferenceWithinError) {
  Histogram hist;
  std::mt19937_64 rng(42);
  // Log-uniform draws cover several octaves, the layout's hard case.
  std::uniform_real_distribution<double> exponent(0.0, 20.0);
  std::vector<std::int64_t> values;
  values.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    const auto v = static_cast<std::int64_t>(std::exp2(exponent(rng)));
    values.push_back(v);
    hist.record(v);
  }
  const HistogramSnapshot snap = hist.snapshot();
  ASSERT_EQ(snap.count, 10000);
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    const std::int64_t reference = reference_quantile(values, q);
    const std::int64_t reported = snap.quantile(q);
    // The report is the upper bound of the reference's bucket: never below
    // the true value, at most one bucket width (~3.1%) above it.
    EXPECT_GE(reported, reference) << "q=" << q;
    EXPECT_LE(static_cast<double>(reported),
              static_cast<double>(reference) * (1.0 + kMaxRelativeError) + 1.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, ResetClearsEverything) {
  Histogram hist;
  hist.record(10);
  hist.record(1000);
  hist.reset();
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_EQ(snap.p99(), 0);
}

// Recorders race a snapshotting reader; run under TSan this pins the
// lock-free record/snapshot protocol, and in any build the final counts
// must be exact.
TEST(LatencyHistogramTest, ConcurrentRecordAndSnapshot) {
  Histogram hist;
  constexpr int kThreads = 4;
  constexpr int kRecords = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecords; ++i) {
        hist.record(static_cast<std::int64_t>(i % 1000) + t);
      }
    });
  }
  // Reader races the writers: every intermediate snapshot must be coherent
  // (count never exceeds the final total, sum consistent with count*max).
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_LE(snap.count, static_cast<std::int64_t>(kThreads) * kRecords);
    EXPECT_GE(snap.count, 0);
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::int64_t>(kThreads) * kRecords);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 999 + kThreads - 1);
}

// record(value, n) is the weighted form the simulator uses for its
// conflict-free groups: it must leave exactly the state n single records
// leave, and a non-positive count must record nothing.
TEST(HistogramTest, WeightedRecordEqualsRepeatedRecords) {
  Histogram weighted;
  Histogram repeated;
  for (const auto& [value, samples] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {3, 1000}, {0, 7}, {70000, 3}, {12, 1}}) {
    weighted.record(value, samples);
    for (std::int64_t i = 0; i < samples; ++i) repeated.record(value);
  }
  weighted.record(99, 0);
  weighted.record(99, -4);
  const HistogramSnapshot a = weighted.snapshot();
  const HistogramSnapshot b = repeated.snapshot();
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, 1011);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, 0);
  EXPECT_EQ(a.max, 70000);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

class LatencyTimerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    Registry::instance().clear();
  }
  void TearDown() override {
    Registry::instance().clear();
    set_metrics_enabled(false);
  }
};

TEST_F(LatencyTimerTest, RecordsElapsedNanoseconds) {
  {
    LatencyTimer timer("timed.op.ns");
    EXPECT_TRUE(timer.active());
  }
  const Histogram* hist =
      Registry::instance().find_histogram("timed.op.ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1);
  EXPECT_GE(hist->snapshot().min, 0);
}

TEST_F(LatencyTimerTest, StopIsIdempotent) {
  LatencyTimer timer("timed.op.ns");
  timer.stop();
  timer.stop();
  const Histogram* hist =
      Registry::instance().find_histogram("timed.op.ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1);
}

TEST_F(LatencyTimerTest, InertWhenMetricsDisabled) {
  set_metrics_enabled(false);
  {
    LatencyTimer timer("ignored.ns");
    EXPECT_FALSE(timer.active());
  }
  observe("ignored.ns", 123);
  set_metrics_enabled(true);
  EXPECT_EQ(Registry::instance().find_histogram("ignored.ns"), nullptr);
}

TEST_F(LatencyTimerTest, RecordLatencyFeedsRegistry) {
  observe("manual.ns", 40);
  observe("manual.ns", 2000);
  const Histogram* hist = Registry::instance().find_histogram("manual.ns");
  ASSERT_NE(hist, nullptr);
  const HistogramSnapshot snap = hist->snapshot();
  EXPECT_EQ(snap.count, 2);
  EXPECT_EQ(snap.min, 40);
  EXPECT_EQ(snap.max, 2000);
}

TEST_F(LatencyTimerTest, RegistrySnapshotsAllLatencies) {
  observe("a.ns", 1);
  observe("b.ns", 2);
  const auto all = Registry::instance().histograms();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("a.ns").count, 1);
  EXPECT_EQ(all.at("b.ns").max, 2);
}

}  // namespace
}  // namespace mempart::obs
