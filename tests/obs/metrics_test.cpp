#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/errors.h"
#include "json_check.h"
#include "obs/histogram.h"
#include "obs/sinks.h"
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
  observe("latency", 5.0, {1.0, 10.0});
  set_metrics_enabled(true);
  EXPECT_EQ(Registry::instance().counter("requests"), 0);
  EXPECT_EQ(Registry::instance().find_histogram("latency"), nullptr);
}

TEST_F(MetricsTest, HistogramBucketing) {
  // Buckets: <=1, <=4, <=16, overflow.
  observe("h", 0.0, {1.0, 4.0, 16.0});
  observe("h", 1.0, {1.0, 4.0, 16.0});  // boundary lands in its bucket
  observe("h", 3.0, {1.0, 4.0, 16.0});
  observe("h", 16.0, {1.0, 4.0, 16.0});
  observe("h", 100.0, {1.0, 4.0, 16.0});
  const Histogram* hist = Registry::instance().find_histogram("h");
  ASSERT_NE(hist, nullptr);
  const Histogram::Snapshot snap = hist->snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2);  // 0, 1
  EXPECT_EQ(snap.buckets[1], 1);  // 3
  EXPECT_EQ(snap.buckets[2], 1);  // 16
  EXPECT_EQ(snap.buckets[3], 1);  // 100 overflow
  EXPECT_EQ(snap.count, 5);
  EXPECT_DOUBLE_EQ(snap.sum, 120.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST_F(MetricsTest, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({4.0, 1.0}), InvalidArgument);
  EXPECT_THROW(Histogram({1.0, 1.0}), InvalidArgument);
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
        observe("merged.hist", static_cast<double>(i % 8), pow2_bounds(3));
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

TEST_F(MetricsTest, JsonRoundTrip) {
  count("solver.solves", 3);
  gauge("bank.load.mean", 12.5);
  observe("delta", 0.0, {1.0, 2.0});
  observe("delta", 5.0, {1.0, 2.0});
  const std::string json = metrics_json();
  const JsonValue root = JsonParser::parse(json);

  EXPECT_DOUBLE_EQ(root.at("counters").at("solver.solves").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("bank.load.mean").number, 12.5);
  const JsonValue& hist = root.at("histograms").at("delta");
  ASSERT_EQ(hist.at("upper_bounds").items.size(), 2u);
  EXPECT_DOUBLE_EQ(hist.at("upper_bounds").items[0].number, 1.0);
  ASSERT_EQ(hist.at("buckets").items.size(), 3u);
  EXPECT_DOUBLE_EQ(hist.at("buckets").items[0].number, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("buckets").items[2].number, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 5.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 0.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 5.0);
}

TEST_F(MetricsTest, EmptyRegistryExportsValidJson) {
  const JsonValue root = JsonParser::parse(metrics_json());
  EXPECT_TRUE(root.at("counters").members.empty());
  EXPECT_TRUE(root.at("gauges").members.empty());
  EXPECT_TRUE(root.at("histograms").members.empty());
}

TEST_F(MetricsTest, JsonExportsLatencySeries) {
  // The file export carries the latency series the NDJSON sample and the
  // OpenMetrics export already carry, with the same fields.
  LatencyHistogram& solve = Registry::instance().latency("solve.ns");
  for (const std::int64_t ns : {10, 20, 30, 40, 1000}) solve.record(ns);
  const JsonValue root = JsonParser::parse(metrics_json());
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

TEST_F(MetricsTest, Pow2Bounds) {
  const std::vector<double> bounds = pow2_bounds(4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

}  // namespace
}  // namespace mempart::obs
