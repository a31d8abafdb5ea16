#include "obs/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/errors.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class SnapshotTest : public ::testing::Test {
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

TEST_F(SnapshotTest, OpenMetricsRendersEveryMetricFamily) {
  count("solver.solves", 3);
  gauge("cache.hits", 41.0);
  observe("delta", 2);
  observe("solve.ns", 100);
  observe("solve.ns", 300);
  const std::string text = openmetrics_text();
  EXPECT_NE(text.find("# TYPE mempart_solver_solves counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("mempart_solver_solves_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mempart_cache_hits gauge\n"), std::string::npos);
  EXPECT_NE(text.find("mempart_cache_hits 41\n"), std::string::npos);
  // Integer distributions and latencies are the same histogram type, so
  // both export as summary families.
  EXPECT_NE(text.find("# TYPE mempart_delta summary\n"), std::string::npos);
  EXPECT_NE(text.find("mempart_delta{quantile=\"0.5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mempart_delta_sum 2\n"), std::string::npos);
  EXPECT_EQ(text.find("histogram"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mempart_solve_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("mempart_solve_ns{quantile=\"0.5\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("mempart_solve_ns_count 2\n"), std::string::npos);
  // The exposition terminator must be the final line.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST_F(SnapshotTest, OpenMetricsRoundTripsThroughTheParser) {
  count("solver.solves", 7);
  gauge("cache.hit_rate", 0.875);
  observe("solve.ns", 50);
  const MetricSample sample = parse_openmetrics(openmetrics_text());
  EXPECT_DOUBLE_EQ(sample.at("mempart_solver_solves_total"), 7.0);
  EXPECT_DOUBLE_EQ(sample.at("mempart_cache_hit_rate"), 0.875);
  EXPECT_DOUBLE_EQ(sample.at("mempart_solve_ns{quantile=\"0.5\"}"), 50.0);
  EXPECT_DOUBLE_EQ(sample.at("mempart_solve_ns_count"), 1.0);
}

TEST_F(SnapshotTest, ParserEnforcesTheLineGrammar) {
  // Well-formed minimal exposition.
  EXPECT_NO_THROW(parse_openmetrics("# TYPE a counter\na_total 1\n# EOF\n"));
  // Missing the terminator.
  EXPECT_THROW(parse_openmetrics("a_total 1\n"), InvalidArgument);
  // Content after the terminator.
  EXPECT_THROW(parse_openmetrics("# EOF\na 1\n"), InvalidArgument);
  // Empty lines are not part of the format.
  EXPECT_THROW(parse_openmetrics("\n# EOF\n"), InvalidArgument);
  // Metric names must not start with a digit.
  EXPECT_THROW(parse_openmetrics("9lives 1\n# EOF\n"), InvalidArgument);
  // Values must parse as floats.
  EXPECT_THROW(parse_openmetrics("a one\n# EOF\n"), InvalidArgument);
  // Unterminated label set.
  EXPECT_THROW(parse_openmetrics("a{le=\"1\" 2\n# EOF\n"), InvalidArgument);
  // Unknown TYPE keyword.
  EXPECT_THROW(parse_openmetrics("# TYPE a flavour\na 1\n# EOF\n"),
               InvalidArgument);
  // Special float values are accepted.
  const MetricSample inf = parse_openmetrics("a +Inf\n# EOF\n");
  EXPECT_TRUE(std::isinf(inf.at("a")));
}

TEST_F(SnapshotTest, ParserRejectsASecondTypeLineForOneFamily) {
  // OpenMetrics family names are unique: the same name exported as a
  // counter and as a gauge is one malformed exposition, not two series.
  const std::string text =
      "# TYPE mempart_serve_shed counter\n"
      "mempart_serve_shed_total 3\n"
      "# TYPE mempart_serve_shed gauge\n"
      "mempart_serve_shed 3\n"
      "# EOF\n";
  try {
    (void)parse_openmetrics(text);
    FAIL() << "a duplicate # TYPE line was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("# TYPE mempart_serve_shed gauge"), std::string::npos)
        << what;
  }
  // Distinct families, and HELP/UNIT lines beside a TYPE, stay legal.
  EXPECT_NO_THROW(parse_openmetrics(
      "# TYPE a counter\n# HELP a help\na_total 1\n"
      "# TYPE b gauge\nb 2\n# EOF\n"));
}

TEST_F(SnapshotTest, NdjsonSampleRoundTrips) {
  count("solver.solves", 5);
  gauge("cache.entries", 12.0);
  observe("solve.ns", 64);
  observe("solve.ns", 256);
  const std::string line = ndjson_sample();
  // One complete object per line, newline-terminated.
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  const MetricSample sample = last_ndjson_sample(line);
  EXPECT_DOUBLE_EQ(sample.at("counters.solver.solves"), 5.0);
  EXPECT_DOUBLE_EQ(sample.at("gauges.cache.entries"), 12.0);
  EXPECT_DOUBLE_EQ(sample.at("latency.solve.ns.count"), 2.0);
  EXPECT_DOUBLE_EQ(sample.at("latency.solve.ns.min"), 64.0);
  EXPECT_DOUBLE_EQ(sample.at("latency.solve.ns.max"), 256.0);
  EXPECT_GT(sample.at("latency.solve.ns.p99"), 0.0);
  EXPECT_GT(sample.at("ts_ms"), 0.0);
}

TEST_F(SnapshotTest, LastNdjsonSampleTakesTheNewestLine) {
  count("ticks", 1);
  const std::string first = ndjson_sample();
  count("ticks", 1);
  const std::string second = ndjson_sample();
  const MetricSample sample = last_ndjson_sample(first + second);
  EXPECT_DOUBLE_EQ(sample.at("counters.ticks"), 2.0);
}

TEST_F(SnapshotTest, LastNdjsonSampleRejectsGarbage) {
  EXPECT_THROW(last_ndjson_sample(""), InvalidArgument);
  EXPECT_THROW(last_ndjson_sample("not json\n"), InvalidArgument);
  EXPECT_THROW(last_ndjson_sample("{\"unterminated\": 1\n"), InvalidArgument);
}

TEST_F(SnapshotTest, LastNdjsonSampleBoundsNesting) {
  // Each level of a flattened object is a stack frame: a line nested
  // 200,000 deep must be rejected, not overflow the stack.
  constexpr std::size_t kDepth = 200000;
  std::string line;
  for (std::size_t i = 0; i < kDepth; ++i) line += "{\"a\":";
  line += '1';
  line.append(kDepth, '}');
  EXPECT_THROW(last_ndjson_sample(line + '\n'), InvalidArgument);
}

TEST_F(SnapshotTest, SnapshotterWritesBothFormatsOnStop) {
  const std::string om_path = ::testing::TempDir() + "snap_stop.om";
  const std::string nd_path = ::testing::TempDir() + "snap_stop.ndjson";
  std::remove(om_path.c_str());
  std::remove(nd_path.c_str());
  count("work.items", 9);
  SnapshotOptions options;
  options.openmetrics_path = om_path;
  options.ndjson_path = nd_path;
  options.interval = std::chrono::hours(1);  // only the final tick fires
  {
    Snapshotter snapshotter(options);
    snapshotter.start();
    // Destruction stops the thread and takes the final snapshot.
  }
  const MetricSample om = parse_openmetrics(read_file(om_path));
  EXPECT_DOUBLE_EQ(om.at("mempart_work_items_total"), 9.0);
  const MetricSample nd = last_ndjson_sample(read_file(nd_path));
  EXPECT_DOUBLE_EQ(nd.at("counters.work.items"), 9.0);
  std::remove(om_path.c_str());
  std::remove(nd_path.c_str());
}

TEST_F(SnapshotTest, SnapshotterTicksPeriodicallyAndAppends) {
  const std::string nd_path = ::testing::TempDir() + "snap_ticks.ndjson";
  std::remove(nd_path.c_str());
  SnapshotOptions options;
  options.ndjson_path = nd_path;
  options.interval = std::chrono::milliseconds(5);
  int callbacks = 0;
  options.before_snapshot = [&callbacks] { ++callbacks; };
  Snapshotter snapshotter(options);
  snapshotter.start();
  // Wait for at least two periodic ticks (plus the final one at stop).
  while (snapshotter.ticks() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  snapshotter.stop();
  const Count ticks = snapshotter.ticks();
  EXPECT_GE(ticks, 3);
  EXPECT_EQ(callbacks, static_cast<int>(ticks));
  // Every tick appended one parsable NDJSON line.
  const std::string series = read_file(nd_path);
  EXPECT_EQ(static_cast<Count>(std::count(series.begin(), series.end(), '\n')),
            ticks);
  EXPECT_NO_THROW(last_ndjson_sample(series));
  std::remove(nd_path.c_str());
}

TEST_F(SnapshotTest, SnapshotterWithoutPathsIsInert) {
  Snapshotter snapshotter(SnapshotOptions{});
  snapshotter.start();
  snapshotter.stop();
  EXPECT_EQ(snapshotter.ticks(), 0);
}

TEST_F(SnapshotTest, StopIsIdempotent) {
  const std::string nd_path = ::testing::TempDir() + "snap_idem.ndjson";
  std::remove(nd_path.c_str());
  SnapshotOptions options;
  options.ndjson_path = nd_path;
  options.interval = std::chrono::hours(1);
  Snapshotter snapshotter(options);
  snapshotter.start();
  snapshotter.stop();
  const Count after_first = snapshotter.ticks();
  snapshotter.stop();
  EXPECT_EQ(snapshotter.ticks(), after_first);
  std::remove(nd_path.c_str());
}

TEST_F(SnapshotTest, RepeatedStartStopCyclesRestartCleanly) {
  const std::string nd_path = ::testing::TempDir() + "snap_cycles.ndjson";
  std::remove(nd_path.c_str());
  SnapshotOptions options;
  options.ndjson_path = nd_path;
  options.interval = std::chrono::hours(1);
  Snapshotter snapshotter(options);
  for (int cycle = 1; cycle <= 5; ++cycle) {
    snapshotter.start();
    snapshotter.stop();
    // Each cycle contributes exactly its guaranteed final tick.
    EXPECT_EQ(snapshotter.ticks(), static_cast<Count>(cycle));
  }
  const std::string series = read_file(nd_path);
  EXPECT_EQ(std::count(series.begin(), series.end(), '\n'), 5);
  std::remove(nd_path.c_str());
}

// Regression for the stop() race `mempart serve` exposed: a signal-driven
// drain calling stop() while the session teardown destructor does the same.
// Exactly one of the racers must write the guaranteed final tick, and the
// thread join must not be entered twice (UB on std::thread). Run several
// rounds so TSan gets real interleavings.
TEST_F(SnapshotTest, ConcurrentStopsTakeTheFinalSnapshotExactlyOnce) {
  const std::string nd_path = ::testing::TempDir() + "snap_stop_race.ndjson";
  for (int round = 0; round < 20; ++round) {
    std::remove(nd_path.c_str());
    SnapshotOptions options;
    options.ndjson_path = nd_path;
    options.interval = std::chrono::hours(1);  // only the final tick fires
    Snapshotter snapshotter(options);
    snapshotter.start();
    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&snapshotter] { snapshotter.stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    EXPECT_EQ(snapshotter.ticks(), 1) << "round " << round;
    const std::string series = read_file(nd_path);
    EXPECT_EQ(std::count(series.begin(), series.end(), '\n'), 1)
        << "round " << round;
  }
  std::remove(nd_path.c_str());
}

// Recorders race the snapshotter thread; under TSan this pins the
// histogram-record vs registry-export interleaving end to end.
TEST_F(SnapshotTest, ConcurrentRecordersWhileSnapshotting) {
  const std::string om_path = ::testing::TempDir() + "snap_race.om";
  std::remove(om_path.c_str());
  SnapshotOptions options;
  options.openmetrics_path = om_path;
  options.interval = std::chrono::milliseconds(1);
  Snapshotter snapshotter(options);
  snapshotter.start();
  std::vector<std::thread> threads;
  threads.reserve(3);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 2000; ++i) {
        observe("race.ns", i);
        count("race.count");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  snapshotter.stop();
  // The final snapshot (taken after the joins) sees every record.
  const MetricSample sample = parse_openmetrics(read_file(om_path));
  EXPECT_DOUBLE_EQ(sample.at("mempart_race_count_total"), 6000.0);
  EXPECT_DOUBLE_EQ(sample.at("mempart_race_ns_count"), 6000.0);
  std::remove(om_path.c_str());
}

}  // namespace
}  // namespace mempart::obs
