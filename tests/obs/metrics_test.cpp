#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "json_check.h"
#include "obs/histogram.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace mempart::obs {
namespace {

using mempart::testing::JsonParser;
using mempart::testing::JsonValue;

class MetricsTest : public ::testing::Test {
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

TEST_F(MetricsTest, CountersAccumulate) {
  count("requests");
  count("requests", 4);
  count("errors", 1);
  EXPECT_EQ(Registry::instance().counter("requests"), 5);
  EXPECT_EQ(Registry::instance().counter("errors"), 1);
  EXPECT_EQ(Registry::instance().counter("unknown"), 0);
}

TEST_F(MetricsTest, GaugesHoldLastValue) {
  gauge("load", 0.25);
  gauge("load", 0.75);
  EXPECT_DOUBLE_EQ(Registry::instance().gauge("load"), 0.75);
}

TEST_F(MetricsTest, DisabledHelpersAreNoOps) {
  set_metrics_enabled(false);
  count("requests", 100);
  gauge("load", 1.0);
  observe("latency", 5);
  EXPECT_EQ(histogram_if_enabled("latency"), nullptr);
  set_metrics_enabled(true);
  EXPECT_EQ(Registry::instance().counter("requests"), 0);
  EXPECT_EQ(Registry::instance().find_histogram("latency"), nullptr);
}

TEST_F(MetricsTest, HistogramBucketing) {
  // Integers below Histogram::kSubBucketCount land in exact unit buckets;
  // larger ones share log-linear buckets.
  for (const std::int64_t v : {0, 1, 1, 3, 16, 100}) observe("h", v);
  const Histogram* hist = Registry::instance().find_histogram("h");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(histogram_if_enabled("h"), hist);
  const HistogramSnapshot snap = hist->snapshot();
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.buckets[16], 1u);
  EXPECT_EQ(snap.buckets[static_cast<size_t>(Histogram::bucket_index(100))],
            1u);
  EXPECT_EQ(snap.count, 6);
  EXPECT_EQ(snap.sum, 121);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 100);
}

TEST_F(MetricsTest, CountersMergeAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIncrements; ++i) {
        count("merged");
        observe("merged.hist", i % 8);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Registry::instance().counter("merged"), kThreads * kIncrements);
  const Histogram* hist = Registry::instance().find_histogram("merged.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->snapshot().count, kThreads * kIncrements);
}

TEST_F(MetricsTest, RecordOpTallyBridgesCounters) {
  OpTally tally{.add = 10, .mul = 20, .div = 30, .compare = 40};
  record_op_tally(tally);
  record_op_tally(tally, "ltb.ops");
  EXPECT_EQ(Registry::instance().counter("solver.ops.add"), 10);
  EXPECT_EQ(Registry::instance().counter("solver.ops.mul"), 20);
  EXPECT_EQ(Registry::instance().counter("solver.ops.div"), 30);
  EXPECT_EQ(Registry::instance().counter("solver.ops.compare"), 40);
  EXPECT_EQ(Registry::instance().counter("ltb.ops.add"), 10);
}

// The registry's one JSON export is the NDJSON sample, which `--metrics
// FILE` writes: one object, every section keyed as below.
TEST_F(MetricsTest, JsonRoundTrip) {
  count("solver.solves", 3);
  gauge("bank.load.mean", 12.5);
  observe("delta", 0);
  observe("delta", 5);
  const JsonValue root = JsonParser::parse(ndjson_sample());

  EXPECT_DOUBLE_EQ(root.at("counters").at("solver.solves").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("bank.load.mean").number, 12.5);
  const JsonValue& hist = root.at("latency").at("delta");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 5.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 0.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 5.0);
}

TEST_F(MetricsTest, EmptyRegistryExportsValidJson) {
  const JsonValue root = JsonParser::parse(ndjson_sample());
  EXPECT_TRUE(root.at("counters").members.empty());
  EXPECT_TRUE(root.at("gauges").members.empty());
  EXPECT_TRUE(root.at("latency").members.empty());
}

TEST_F(MetricsTest, JsonExportsLatencySeries) {
  // Every latency series carries count, sum, exact min/max and the four
  // percentiles.
  Histogram& solve = Registry::instance().histogram("solve.ns");
  for (const std::int64_t ns : {10, 20, 30, 40, 1000}) solve.record(ns);
  const JsonValue root = JsonParser::parse(ndjson_sample());
  const JsonValue& series = root.at("latency").at("solve.ns");
  EXPECT_DOUBLE_EQ(series.at("count").number, 5.0);
  EXPECT_DOUBLE_EQ(series.at("sum").number, 1100.0);
  EXPECT_DOUBLE_EQ(series.at("min").number, 10.0);
  EXPECT_DOUBLE_EQ(series.at("max").number, 1000.0);
  EXPECT_DOUBLE_EQ(series.at("p50").number, 30.0);
  EXPECT_DOUBLE_EQ(series.at("p90").number, 1000.0);
  EXPECT_DOUBLE_EQ(series.at("p99").number, 1000.0);
  EXPECT_DOUBLE_EQ(series.at("p999").number, 1000.0);
}

}  // namespace
}  // namespace mempart::obs
