#include "obs/metrics.h"

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "util/thread_pool.h"

namespace fedmigr::obs {
namespace {

TEST(CounterTest, AddAndIncrement) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Set(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.0);
}

TEST(HistogramTest, BucketLayoutIsExponential) {
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 4;
  Histogram hist(options);
  ASSERT_EQ(hist.bounds().size(), 4u);
  EXPECT_DOUBLE_EQ(hist.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(hist.bounds()[1], 2.0);
  EXPECT_DOUBLE_EQ(hist.bounds()[2], 4.0);
  EXPECT_DOUBLE_EQ(hist.bounds()[3], 8.0);
  EXPECT_EQ(hist.num_buckets(), 5u);  // finite + overflow
}

TEST(HistogramTest, ObservePlacesIntoBuckets) {
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 3;  // bounds 1, 2, 4 + overflow
  Histogram hist(options);
  hist.Observe(0.5);   // <= 1 -> bucket 0
  hist.Observe(1.0);   // == bound -> bucket 0 (bounds are inclusive)
  hist.Observe(1.5);   // bucket 1
  hist.Observe(4.0);   // bucket 2
  hist.Observe(100.0);  // overflow
  EXPECT_EQ(hist.count(), 5);
  EXPECT_EQ(hist.bucket_count(0), 2);
  EXPECT_EQ(hist.bucket_count(1), 1);
  EXPECT_EQ(hist.bucket_count(2), 1);
  EXPECT_EQ(hist.bucket_count(3), 1);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(HistogramTest, NanGoesToOverflowBucket) {
  HistogramOptions options;
  options.first_bound = 1.0;
  options.num_buckets = 2;
  Histogram hist(options);
  hist.Observe(std::nan(""));
  EXPECT_EQ(hist.count(), 1);
  EXPECT_EQ(hist.bucket_count(0), 0);
  EXPECT_EQ(hist.bucket_count(2), 1);
}

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  Registry registry;
  Counter* a = registry.GetCounter("a");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h");
  EXPECT_EQ(registry.GetCounter("a"), a);
  EXPECT_EQ(registry.GetGauge("g"), g);
  EXPECT_EQ(registry.GetHistogram("h"), h);
}

TEST(RegistryDeathTest, KindCollisionIsAProgrammingError) {
  Registry registry;
  registry.GetCounter("metric");
  EXPECT_DEATH({ registry.GetGauge("metric"); }, "already registered");
  EXPECT_DEATH({ registry.GetHistogram("metric"); }, "already registered");
}

TEST(RegistryTest, LabeledNameSortsKeys) {
  const std::string name = Registry::LabeledName(
      "nn/gemm_ms", {{"kernel", "avx2"}, {"dtype", "f32"}});
  EXPECT_EQ(name, "nn/gemm_ms{dtype=f32,kernel=avx2}");
  // Same label set in any order maps to the same series.
  EXPECT_EQ(Registry::LabeledName("m", {{"b", "2"}, {"a", "1"}}),
            Registry::LabeledName("m", {{"a", "1"}, {"b", "2"}}));
}

TEST(RegistryTest, ConcurrentUpdatesLoseNothing) {
  Registry registry;
  Counter* counter = registry.GetCounter("torture/counter");
  Histogram* hist = registry.GetHistogram("torture/hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  util::ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&](int t) {
    // Mix creation (get-or-create races on the same names) with updates.
    Counter* mine = registry.GetCounter("torture/counter");
    for (int i = 0; i < kPerThread; ++i) {
      mine->Increment();
      hist->Observe(static_cast<double>((t + i) % 7));
    }
  });
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(hist->count(), kThreads * kPerThread);
}

TEST(RegistryTest, SnapshotIsSortedAndDeterministic) {
  Registry registry;
  registry.GetCounter("z/last")->Add(3);
  registry.GetCounter("a/first")->Add(1);
  registry.GetGauge("m/gauge")->Set(0.25);
  registry.GetHistogram("h/hist")->Observe(0.01);

  const MetricsSnapshot snap1 = registry.Snapshot();
  const MetricsSnapshot snap2 = registry.Snapshot();

  ASSERT_EQ(snap1.counters.size(), 2u);
  EXPECT_EQ(snap1.counters[0].name, "a/first");
  EXPECT_EQ(snap1.counters[1].name, "z/last");
  EXPECT_EQ(snap1.CounterValue("z/last"), 3);
  EXPECT_EQ(snap1.CounterValue("missing"), 0);
  ASSERT_EQ(snap1.gauges.size(), 1u);
  EXPECT_EQ(snap1.gauges[0].name, "m/gauge");
  EXPECT_DOUBLE_EQ(snap1.gauges[0].value, 0.25);
  ASSERT_NE(snap1.FindHistogram("h/hist"), nullptr);
  EXPECT_EQ(snap1.FindHistogram("nope"), nullptr);

  // Idle registry -> byte-identical serializations.
  EXPECT_EQ(snap1.ToJson(), snap2.ToJson());
  EXPECT_EQ(snap1.ToCsv(), snap2.ToCsv());
}

TEST(MetricsSnapshotTest, PercentilesInterpolate) {
  Registry registry;
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 4;
  Histogram* hist = registry.GetHistogram("p/hist", options);
  for (int i = 0; i < 100; ++i) hist->Observe(1.5);  // all in (1, 2]
  const MetricsSnapshot snap = registry.Snapshot();
  const MetricsSnapshot::HistogramSample* sample = snap.FindHistogram("p/hist");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 100);
  EXPECT_DOUBLE_EQ(sample->mean(), 1.5);
  // Every estimate stays inside the populated bucket's range.
  for (double p : {1.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double est = sample->Percentile(p);
    EXPECT_GE(est, 1.0) << "p=" << p;
    EXPECT_LE(est, 2.0) << "p=" << p;
  }
  // The snapshot columns are monotone by construction.
  EXPECT_LE(sample->Percentile(50.0), sample->Percentile(90.0));
  EXPECT_LE(sample->Percentile(90.0), sample->Percentile(95.0));
  EXPECT_LE(sample->Percentile(95.0), sample->Percentile(99.0));
  // Empty sample -> 0.
  MetricsSnapshot::HistogramSample empty;
  EXPECT_EQ(empty.Percentile(50.0), 0.0);
}

TEST(MetricsSnapshotTest, JsonAndCsvContainAllSeries) {
  Registry registry;
  registry.GetCounter("c/events")->Add(7);
  registry.GetGauge("g/loss")->Set(0.5);
  registry.GetHistogram("h/ms")->Observe(0.002);
  const MetricsSnapshot snap = registry.Snapshot();

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"c/events\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"g/loss\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"h/ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);

  const std::string csv = snap.ToCsv();
  EXPECT_EQ(csv.rfind("kind,name,value\n", 0), 0u);
  EXPECT_NE(csv.find("counter,c/events,7\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g/loss,0.5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram_count,h/ms,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram_p95,h/ms,"), std::string::npos);
}

TEST(TelemetryTest, RuntimeToggleRoundTrips) {
  EXPECT_TRUE(Telemetry::enabled());
  Telemetry::Disable();
  EXPECT_FALSE(Telemetry::enabled());
  Telemetry::Enable();
  EXPECT_TRUE(Telemetry::enabled());
}

}  // namespace
}  // namespace fedmigr::obs
