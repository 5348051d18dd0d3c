// Lock-cheap metrics registry: named Counters, Gauges and Histograms that
// hot paths update with relaxed atomics and that snapshot deterministically
// to JSON/CSV (DESIGN.md §11).
//
// Naming convention: `subsystem/verb_noun`, e.g. "fl/local_update",
// "net/c2c_bytes", "rl/train_steps". Label sets render into the name as
// `name{key=value,...}` with keys sorted, so one metric family fans out
// into deterministic per-label series (see Registry::LabeledName).
//
// Concurrency contract: metric creation takes the registry mutex once per
// name (call sites cache the returned pointer, typically in a function-local
// static); every update afterwards is a relaxed atomic RMW on the metric
// itself, safe from any thread and TSan-clean. Pointers returned by the
// registry stay valid for the registry's lifetime.

#ifndef FEDMIGR_OBS_METRICS_H_
#define FEDMIGR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace fedmigr::obs {

// Monotonically increasing integer (events, bytes, FLOPs).
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-written double (loss, accuracy, queue depth).
class Gauge {
 public:
  void Set(double value) {
    bits_.store(Encode(value), std::memory_order_relaxed);
  }
  double value() const { return Decode(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t Encode(double value);
  static double Decode(uint64_t bits);

  std::atomic<uint64_t> bits_{0};  // IEEE-754 bits of 0.0
};

// Fixed exponential bucket layout: finite bucket i (0-based) covers
// (first_bound * growth^(i-1), first_bound * growth^i]; one final bucket
// catches everything above the last bound. Values <= first_bound land in
// bucket 0.
struct HistogramOptions {
  double first_bound = 1e-3;  // default layout: 1 µs granularity in ms units
  double growth = 2.0;
  int num_buckets = 32;  // finite buckets; ~35 min of range at the defaults
};

class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options);

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  int64_t bucket_count(size_t bucket) const;
  size_t num_buckets() const { return counts_.size(); }  // finite + overflow

 private:
  std::vector<double> bounds_;  // ascending upper bounds, one per finite bucket
  std::vector<std::atomic<int64_t>> counts_;  // bounds_.size() + 1 (overflow)
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // IEEE-754 bits, CAS-accumulated
};

// Point-in-time copy of every registered metric, sorted by name. Snapshots
// of an idle registry are byte-identical, which is what makes them safe to
// diff in tests and embed in run results.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    int64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    int64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;
    std::vector<int64_t> counts;  // bounds.size() + 1, overflow last

    double mean() const;
    // p in [0, 100], estimated by linear interpolation inside the bucket
    // that contains the rank; 0 when empty.
    double Percentile(double p) const;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  // Lookup helpers; a missing name yields 0 / nullptr.
  int64_t CounterValue(const std::string& name) const;
  const HistogramSample* FindHistogram(const std::string& name) const;

  std::string ToJson() const;
  std::string ToCsv() const;
};

class Registry {
 public:
  // The process-wide registry every instrumentation site reports into.
  static Registry& Default();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Get-or-create by name. A name identifies exactly one metric kind:
  // asking for an existing name with a different kind is a programming
  // error (CHECK). Returned pointers remain valid for the registry's life.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const HistogramOptions& options = {});

  MetricsSnapshot Snapshot() const;

  // Publishes a snapshot through util::AtomicWriteFile.
  util::Status WriteJsonFile(const std::string& path) const;
  util::Status WriteCsvFile(const std::string& path) const;

  // "name{k1=v1,k2=v2}" with keys sorted — the canonical labeled-series
  // name, so the same label set always maps to the same metric.
  static std::string LabeledName(
      const std::string& name,
      std::initializer_list<std::pair<const char*, std::string>> labels);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fedmigr::obs

#endif  // FEDMIGR_OBS_METRICS_H_
