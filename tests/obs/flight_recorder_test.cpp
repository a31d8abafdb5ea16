#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart::obs {
namespace {

using mempart::testing::JsonParser;
using mempart::testing::JsonValue;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flight_clear();
    set_flight_capacity(64);
  }
  void TearDown() override {
    flight_clear();
    set_flight_capacity(kDefaultFlightCapacity);
  }
};

TEST_F(FlightRecorderTest, RecordsNotesWithNamesAndValues) {
  flight_note("setup", 1);
  flight_note("loop", 2);
  flight_note("teardown", 3);
  const std::vector<FlightEvent> events = flight_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "setup");
  EXPECT_EQ(events[0].value, 1);
  EXPECT_EQ(events[0].kind, FlightKind::kNote);
  EXPECT_EQ(events[2].name, "teardown");
  EXPECT_EQ(events[2].value, 3);
  // Per-thread sequence numbers are dense and 1-based.
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[2].seq, 3u);
  // Timestamps never run backwards within a thread.
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
  EXPECT_LE(events[1].t_ns, events[2].t_ns);
}

TEST_F(FlightRecorderTest, WraparoundKeepsTheLastCapacityEvents) {
  set_flight_capacity(8);
  for (int i = 1; i <= 20; ++i) flight_note("event", i);
  const std::vector<FlightEvent> events = flight_events();
  ASSERT_EQ(events.size(), 8u);
  // The ring retains exactly the newest 8 of the 20 records, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(13 + i));
    EXPECT_EQ(events[i].seq, 13 + i);
  }
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsEverything) {
  set_flight_capacity(0);
  EXPECT_FALSE(flight_enabled());
  flight_note("dropped", 1);
  EXPECT_TRUE(flight_events().empty());
}

TEST_F(FlightRecorderTest, QuietScopeSuppressesDetailEvents) {
  flight_note("narrative.before", 1);
  {
    const FlightQuietScope quiet;
    EXPECT_TRUE(flight_quiet());
    // Spans, counters, and notes are all detail inside the scope.
    { Span span("detail.span"); }
    count("detail.counter", 3);
    flight_note("detail.note", 2);
    {
      const FlightQuietScope nested;  // nests without unlocking early
      flight_note("detail.nested", 4);
    }
    EXPECT_TRUE(flight_quiet());
  }
  EXPECT_FALSE(flight_quiet());
  flight_note("narrative.after", 5);
  const std::vector<FlightEvent> events = flight_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "narrative.before");
  EXPECT_EQ(events[1].name, "narrative.after");
}

TEST_F(FlightRecorderTest, SpansRecordBeginEndEvenWithTracingOff) {
  set_tracing_enabled(false);
  { Span span("flight.only.span"); }
  const std::vector<FlightEvent> events = flight_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightKind::kSpanBegin);
  EXPECT_EQ(events[0].name, "flight.only.span");
  EXPECT_EQ(events[1].kind, FlightKind::kSpanEnd);
}

TEST_F(FlightRecorderTest, DumpJsonIsChromeTraceCompatible) {
  {
    Span span("dump.span");
    flight_note("dump.note", 42);
  }
  count("dump.counter", 5);  // counters feed the recorder unconditionally
  const JsonValue root = JsonParser::parse(flight_dump_json());
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.items.size(), 4u);
  // Span begin, note, span end, counter — in recording order.
  EXPECT_EQ(events.items[0].at("ph").text, "B");
  EXPECT_EQ(events.items[0].at("name").text, "dump.span");
  EXPECT_EQ(events.items[1].at("ph").text, "i");
  EXPECT_DOUBLE_EQ(events.items[1].at("args").at("value").number, 42.0);
  EXPECT_EQ(events.items[2].at("ph").text, "E");
  EXPECT_EQ(events.items[3].at("ph").text, "C");
  EXPECT_DOUBLE_EQ(events.items[3].at("args").at("delta").number, 5.0);
}

TEST_F(FlightRecorderTest, DumpToFileRoundTrips) {
  flight_note("persisted", 9);
  const std::string path =
      ::testing::TempDir() + "mempart_flight_roundtrip.json";
  std::remove(path.c_str());
  ASSERT_TRUE(flight_dump_to_file(path));
  const JsonValue root = JsonParser::parse(read_file(path));
  ASSERT_EQ(root.at("traceEvents").items.size(), 1u);
  EXPECT_EQ(root.at("traceEvents").items[0].at("name").text, "persisted");
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, DumpToFileFailsGracefully) {
  EXPECT_FALSE(flight_dump_to_file("/nonexistent-dir/flight.json"));
}

TEST_F(FlightRecorderTest, DumpPathHonoursOverride) {
  set_flight_dump_path("/tmp/custom_flight.json");
  EXPECT_EQ(flight_dump_path(), "/tmp/custom_flight.json");
  // flight_clear() in TearDown resets the override with the rest of the
  // state; the default path is pid-derived.
}

TEST_F(FlightRecorderTest, EachThreadGetsItsOwnRing) {
  set_flight_capacity(4);
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 10; ++i) flight_note("per.thread", i);
    });
  }
  for (std::thread& t : threads) t.join();
  // Each thread overflowed its own 4-slot ring: 3 * 4 survivors.
  const std::vector<FlightEvent> events = flight_events();
  EXPECT_EQ(events.size(), 12u);
}

// Thread churn must not grow the recorder: only the most recently exited
// threads keep their rings, beside every live thread's.
TEST_F(FlightRecorderTest, ExitedThreadRingsAreBounded) {
  set_flight_capacity(4);
  flight_note("live.thread", -1);
  constexpr int kThreads = 200;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([t] { flight_note("short.lived", t); }).join();
  }
  std::set<int> thread_ids;
  std::set<std::int64_t> values;
  for (const FlightEvent& event : flight_events()) {
    thread_ids.insert(event.thread_id);
    values.insert(event.value);
  }
  EXPECT_LE(static_cast<Count>(thread_ids.size()),
            kRetainedExitedFlightRings + 1);
  EXPECT_EQ(values.count(-1), 1u);           // the live thread's ring
  EXPECT_EQ(values.count(kThreads - 1), 1u);  // the last thread to exit
  EXPECT_EQ(values.count(0), 0u);            // long since released
}

// Writers race a dumper; under TSan this pins the seqlock protocol (the
// reader either sees a coherent slot or skips it — never a torn mix).
TEST_F(FlightRecorderTest, ConcurrentRecordAndDump) {
  set_flight_capacity(32);
  std::vector<std::thread> threads;
  threads.reserve(2);
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 5000; ++i) flight_note("race.note", i);
    });
  }
  for (int i = 0; i < 100; ++i) {
    for (const FlightEvent& event : flight_events()) {
      // A surviving slot must be fully coherent.
      EXPECT_EQ(event.name, "race.note");
      EXPECT_GE(event.value, 0);
      EXPECT_LT(event.value, 5000);
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(flight_events().size(), 64u);  // two full 32-slot rings
}

using FlightRecorderDeathTest = FlightRecorderTest;

TEST_F(FlightRecorderDeathTest, CrashHandlerWritesReadableDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "mempart_flight_death.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        set_flight_capacity(32);
        set_flight_dump_path(path);
        install_flight_crash_handler();
        flight_note("before.crash", 7);
        std::raise(SIGSEGV);
      },
      "");
  // The handler in the dying child wrote its last events before re-raising.
  const std::string dumped = read_file(path);
  ASSERT_FALSE(dumped.empty());
  const JsonValue root = JsonParser::parse(dumped);
  ASSERT_GE(root.at("traceEvents").items.size(), 1u);
  bool found = false;
  for (const JsonValue& event : root.at("traceEvents").items) {
    if (event.at("name").text == "before.crash") found = true;
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mempart::obs
