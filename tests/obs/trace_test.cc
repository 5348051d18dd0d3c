#include "obs/trace.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace fedmigr::obs {
namespace {

// All "ts" values in emission order (metadata events carry no ts, so this
// sequence is exactly the B/E/i stream).
std::vector<double> ExtractTimestamps(const std::string& json) {
  std::vector<double> out;
  const std::string key = "\"ts\":";
  for (size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    out.push_back(std::stod(json.substr(pos + key.size())));
  }
  return out;
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(StopwatchTest, ElapsedIsNonNegativeAndRestartable) {
  Stopwatch watch;
  const double first = watch.ElapsedMs();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(watch.ElapsedMs(), first);
  watch.Restart();
  EXPECT_GE(watch.ElapsedMs(), 0.0);
  // Separate clock reads, so only the unit relation is checkable.
  const double ms = watch.ElapsedMs();
  const double s = watch.ElapsedSeconds();
  EXPECT_GE(s, ms * 1e-3);
  EXPECT_LT(s, ms * 1e-3 + 1.0);
}

TEST(TraceRecorderTest, OffByDefaultRecordsNothing) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.recording());
  recorder.RecordSimSpan("ignored", "track", 0.0, 1.0);
  recorder.RecordInstant("ignored");
  EXPECT_TRUE(recorder.ExportEvents().empty());
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(TraceRecorderTest, ExportSortsNestsAndClampsSpans) {
  TraceRecorder recorder;
  recorder.Start();
  // Recorded child-first: export must still put the enclosing span first.
  recorder.RecordSimSpan("inner", "phase", 2.0, 3.0);
  recorder.RecordSimSpan("outer", "phase", 1.0, 5.0);
  recorder.RecordSimSpan("inverted", "phase", 6.0, 5.5);  // clock quantization
  recorder.Stop();

  const std::vector<TraceEvent> events = recorder.ExportEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "inverted");
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.pid, 2);
    EXPECT_GE(e.end_us, e.start_us);  // inverted span was clamped
  }
  EXPECT_DOUBLE_EQ(events[2].start_us, events[2].end_us);
}

TEST(TraceRecorderTest, ChromeJsonHasMatchedPairsAndMonotoneTs) {
  TraceRecorder recorder;
  recorder.Start();
  // One track: nested, overlapping, and disjoint spans.
  recorder.RecordSimSpan("outer", "phase", 1.0, 5.0);
  recorder.RecordSimSpan("inner", "phase", 2.0, 3.0);
  recorder.RecordSimSpan("overlap", "phase", 4.0, 7.0);  // clamped to outer
  recorder.RecordSimSpan("later", "phase", 8.0, 9.0);
  recorder.Stop();

  const std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"simulated time\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);  // thread_name
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 4);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), 4);

  // Single track, so the full ts stream must be non-decreasing.
  const std::vector<double> ts = ExtractTimestamps(json);
  ASSERT_EQ(ts.size(), 8u);
  for (size_t i = 1; i < ts.size(); ++i) {
    EXPECT_GE(ts[i], ts[i - 1]) << "event " << i;
  }
}

TEST(TraceRecorderTest, InstantsUseTheDedicatedTrack) {
  TraceRecorder recorder;
  recorder.Start();
  recorder.RecordInstant("target_reached");
  recorder.Stop();
  const std::vector<TraceEvent> events = recorder.ExportEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_EQ(events[0].pid, 1);
  EXPECT_EQ(events[0].tid, 0);
  const std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(TraceRecorderTest, FullRingDropsNewestAndCounts) {
  TraceRecorder recorder;
  recorder.Start(/*capacity=*/2);
  recorder.RecordSimSpan("a", "t", 0.0, 1.0);
  recorder.RecordSimSpan("b", "t", 1.0, 2.0);
  recorder.RecordSimSpan("c", "t", 2.0, 3.0);  // dropped
  recorder.Stop();
  EXPECT_EQ(recorder.ExportEvents().size(), 2u);
  EXPECT_EQ(recorder.dropped(), 1);
  // Start() resets the ring and the drop counter.
  recorder.Start(/*capacity=*/2);
  recorder.Stop();
  EXPECT_TRUE(recorder.ExportEvents().empty());
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(TraceRecorderTest, WallSpansGetOneTidPerThread) {
  TraceRecorder recorder;
  recorder.Start();
  const int64_t base = MonotonicNowNs();
  recorder.RecordSpan("main_thread", base, base + 1000);
  std::thread other(
      [&] { recorder.RecordSpan("other_thread", base + 2000, base + 3000); });
  other.join();
  recorder.RecordSpan("main_again", base + 4000, base + 5000);
  recorder.Stop();

  const std::vector<TraceEvent> events = recorder.ExportEvents();
  ASSERT_EQ(events.size(), 3u);
  int main_tid = 0;
  int other_tid = 0;
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.pid, 1);
    if (e.name == "other_thread") {
      other_tid = e.tid;
    } else {
      if (main_tid != 0) {
        EXPECT_EQ(e.tid, main_tid);  // same thread, same tid
      }
      main_tid = e.tid;
    }
  }
  EXPECT_NE(main_tid, other_tid);
}

TEST(ScopedTraceTest, ObservesElapsedIntoHistogram) {
  Histogram histogram(HistogramOptions{});
  {
    ScopedTrace scope("scoped_trace_test", &histogram);
  }
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_GE(histogram.sum(), 0.0);
}

TEST(ScopedTraceTest, DisabledTelemetrySkipsAllWork) {
  Histogram histogram(HistogramOptions{});
  Telemetry::Disable();
  {
    ScopedTrace scope("scoped_trace_disabled", &histogram);
  }
  Telemetry::Enable();
  EXPECT_EQ(histogram.count(), 0);
}

TEST(ScopedTraceTest, RecordsSpanWhileDefaultRecorderRuns) {
  TraceRecorder& recorder = TraceRecorder::Default();
  recorder.Start();
  {
    FEDMIGR_TRACE_SCOPE("obs/trace_test_scope");
  }
  recorder.Stop();
  const std::vector<TraceEvent> events = recorder.ExportEvents();
  bool found = false;
  for (const TraceEvent& e : events) {
    found = found || e.name == "obs/trace_test_scope";
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace fedmigr::obs
