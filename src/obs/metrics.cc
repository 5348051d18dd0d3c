#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/file.h"
#include "util/logging.h"

namespace fedmigr::obs {
namespace {

// Shortest round-trip decimal for a double; deterministic across runs
// (printf %.17g then trims, same scheme as the snapshot fingerprints).
std::string FormatDouble(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) break;
  }
  return buf;
}

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('"');
}

util::Status WriteStringFile(const std::string& path,
                             const std::string& body) {
  std::vector<uint8_t> bytes(body.begin(), body.end());
  return util::AtomicWriteFile(path, bytes);
}

}  // namespace

uint64_t Gauge::Encode(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double Gauge::Decode(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Histogram::Histogram(const HistogramOptions& options)
    : counts_(static_cast<size_t>(options.num_buckets) + 1) {
  FEDMIGR_CHECK(options.num_buckets > 0);
  FEDMIGR_CHECK(options.first_bound > 0.0);
  FEDMIGR_CHECK(options.growth > 1.0);
  bounds_.reserve(static_cast<size_t>(options.num_buckets));
  double bound = options.first_bound;
  for (int i = 0; i < options.num_buckets; ++i) {
    bounds_.push_back(bound);
    bound *= options.growth;
  }
}

void Histogram::Observe(double value) {
  // Upper-bound search: first bucket whose bound >= value; NaN and values
  // beyond the last bound fall into the overflow bucket.
  size_t bucket = bounds_.size();
  if (value == value) {  // lower_bound mis-sorts NaN into bucket 0
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    if (it != bounds_.end()) bucket = static_cast<size_t>(it - bounds_.begin());
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t observed = sum_bits_.load(std::memory_order_relaxed);
  double current = 0.0;
  uint64_t next = 0;
  do {
    std::memcpy(&current, &observed, sizeof(current));
    current += value;
    std::memcpy(&next, &current, sizeof(next));
  } while (!sum_bits_.compare_exchange_weak(observed, next,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed));
}

double Histogram::sum() const {
  uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

int64_t Histogram::bucket_count(size_t bucket) const {
  FEDMIGR_CHECK(bucket < counts_.size());
  return counts_[bucket].load(std::memory_order_relaxed);
}

double MetricsSnapshot::HistogramSample::mean() const {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double MetricsSnapshot::HistogramSample::Percentile(double p) const {
  FEDMIGR_CHECK(p >= 0.0 && p <= 100.0);
  if (count <= 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank && counts[i] > 0) {
      // Interpolate inside the bucket between its lower and upper bound.
      const double upper = i < bounds.size() ? bounds[i] : bounds.back();
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double into =
          (rank - static_cast<double>(cumulative - counts[i])) /
          static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::min(1.0, std::max(0.0, into));
    }
  }
  return bounds.back();
}

int64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const MetricsSnapshot::HistogramSample* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(counters[i].name, &out);
    out += ": " + std::to_string(counters[i].value);
  }
  out += "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(gauges[i].name, &out);
    out += ": " + FormatDouble(gauges[i].value);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(h.name, &out);
    out += ": {\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + FormatDouble(h.sum);
    out += ", \"mean\": " + FormatDouble(h.mean());
    out += ", \"p50\": " + FormatDouble(h.Percentile(50.0));
    out += ", \"p90\": " + FormatDouble(h.Percentile(90.0));
    out += ", \"p95\": " + FormatDouble(h.Percentile(95.0));
    out += ", \"p99\": " + FormatDouble(h.Percentile(99.0));
    out += ", \"bounds\": [";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ", ";
      out += FormatDouble(h.bounds[b]);
    }
    out += "], \"counts\": [";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(h.counts[b]);
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToCsv() const {
  // One row per series: kind,name,value — histograms flatten into
  // count/sum/percentile rows so the file stays grep- and pandas-friendly.
  std::string out = "kind,name,value\n";
  for (const CounterSample& c : counters) {
    out += "counter," + c.name + "," + std::to_string(c.value) + "\n";
  }
  for (const GaugeSample& g : gauges) {
    out += "gauge," + g.name + "," + FormatDouble(g.value) + "\n";
  }
  for (const HistogramSample& h : histograms) {
    out += "histogram_count," + h.name + "," + std::to_string(h.count) + "\n";
    out += "histogram_sum," + h.name + "," + FormatDouble(h.sum) + "\n";
    out += "histogram_p50," + h.name + "," + FormatDouble(h.Percentile(50.0)) +
           "\n";
    out += "histogram_p90," + h.name + "," + FormatDouble(h.Percentile(90.0)) +
           "\n";
    out += "histogram_p95," + h.name + "," + FormatDouble(h.Percentile(95.0)) +
           "\n";
    out += "histogram_p99," + h.name + "," + FormatDouble(h.Percentile(99.0)) +
           "\n";
  }
  return out;
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();  // leaked: outlive all users
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  FEDMIGR_CHECK(gauges_.find(name) == gauges_.end())
      << "metric '" << name << "' already registered as a gauge";
  FEDMIGR_CHECK(histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered as a histogram";
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  FEDMIGR_CHECK(counters_.find(name) == counters_.end())
      << "metric '" << name << "' already registered as a counter";
  FEDMIGR_CHECK(histograms_.find(name) == histograms_.end())
      << "metric '" << name << "' already registered as a histogram";
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  FEDMIGR_CHECK(counters_.find(name) == counters_.end())
      << "metric '" << name << "' already registered as a counter";
  FEDMIGR_CHECK(gauges_.find(name) == gauges_.end())
      << "metric '" << name << "' already registered as a gauge";
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(options);
  return slot.get();
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramSample sample;
    sample.name = name;
    sample.count = histogram->count();
    sample.sum = histogram->sum();
    sample.bounds = histogram->bounds();
    sample.counts.resize(histogram->num_buckets());
    for (size_t b = 0; b < sample.counts.size(); ++b) {
      sample.counts[b] = histogram->bucket_count(b);
    }
    snapshot.histograms.push_back(std::move(sample));
  }
  // std::map iteration is already name-sorted, so snapshots of the same
  // registry state serialize byte-identically.
  return snapshot;
}

util::Status Registry::WriteJsonFile(const std::string& path) const {
  return WriteStringFile(path, Snapshot().ToJson());
}

util::Status Registry::WriteCsvFile(const std::string& path) const {
  return WriteStringFile(path, Snapshot().ToCsv());
}

std::string Registry::LabeledName(
    const std::string& name,
    std::initializer_list<std::pair<const char*, std::string>> labels) {
  std::vector<std::pair<std::string, std::string>> sorted;
  sorted.reserve(labels.size());
  for (const auto& [key, value] : labels) sorted.emplace_back(key, value);
  std::sort(sorted.begin(), sorted.end());
  std::string out = name + "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ",";
    out += sorted[i].first + "=" + sorted[i].second;
  }
  out += "}";
  return out;
}

}  // namespace fedmigr::obs
