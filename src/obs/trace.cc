#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/file.h"

namespace fedmigr::obs {
namespace {

constexpr int kInstantTid = 0;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FormatUs(double us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* recorder = new TraceRecorder();  // leaked: see Registry
  return *recorder;
}

void TraceRecorder::Start(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  events_.reserve(capacity);
  capacity_ = capacity;
  dropped_ = 0;
  base_ns_ = MonotonicNowNs();
  wall_tids_.clear();
  sim_tids_.clear();
  sim_track_names_.clear();
  recording_.store(true, std::memory_order_release);
}

void TraceRecorder::Stop() {
  recording_.store(false, std::memory_order_release);
}

void TraceRecorder::Append(StoredEvent event) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

int TraceRecorder::WallTidLocked(std::thread::id id) {
  auto [it, inserted] =
      wall_tids_.emplace(id, static_cast<int>(wall_tids_.size()) + 1);
  (void)inserted;
  return it->second;
}

int TraceRecorder::SimTidLocked(const std::string& track) {
  auto [it, inserted] =
      sim_tids_.emplace(track, static_cast<int>(sim_tids_.size()) + 1);
  if (inserted) sim_track_names_.emplace_back(it->second, track);
  return it->second;
}

void TraceRecorder::RecordSpan(const std::string& name, int64_t start_ns,
                               int64_t end_ns) {
  if (!recording()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  StoredEvent event;
  event.name = name;
  event.pid = 1;
  event.tid = WallTidLocked(std::this_thread::get_id());
  event.start_us = static_cast<double>(start_ns - base_ns_) * 1e-3;
  event.end_us = static_cast<double>(end_ns - base_ns_) * 1e-3;
  Append(std::move(event));
}

void TraceRecorder::RecordSimSpan(const std::string& name,
                                  const std::string& track, double start_s,
                                  double end_s) {
  if (!recording()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  StoredEvent event;
  event.name = name;
  event.pid = 2;
  event.tid = SimTidLocked(track);
  event.start_us = start_s * 1e6;
  event.end_us = end_s * 1e6;
  Append(std::move(event));
}

void TraceRecorder::RecordInstant(const std::string& name) {
  if (!recording()) return;
  const int64_t now_ns = MonotonicNowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  StoredEvent event;
  event.name = name;
  event.pid = 1;
  event.tid = kInstantTid;
  event.start_us = static_cast<double>(now_ns - base_ns_) * 1e-3;
  event.end_us = event.start_us;
  event.instant = true;
  Append(std::move(event));
}

int64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> TraceRecorder::ExportEvents() const {
  std::vector<StoredEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  // Group by (pid, tid); within a track sort by (start asc, end desc) so a
  // span precedes the spans it encloses. Stable per-track order makes the
  // export deterministic for a given recorded set.
  std::stable_sort(events.begin(), events.end(),
                   [](const StoredEvent& a, const StoredEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_us != b.start_us) return a.start_us < b.start_us;
                     return a.end_us > b.end_us;
                   });
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  for (StoredEvent& e : events) {
    TraceEvent exported;
    exported.name = std::move(e.name);
    exported.pid = e.pid;
    exported.tid = e.tid;
    exported.start_us = e.start_us;
    // Zero-length spans are legal; clamp inverted ones (clock quantization)
    // rather than emitting E-before-B.
    exported.end_us = std::max(e.start_us, e.end_us);
    exported.instant = e.instant;
    out.push_back(std::move(exported));
  }
  return out;
}

std::string TraceRecorder::ToChromeJson() const {
  std::vector<TraceEvent> events = ExportEvents();
  std::vector<std::pair<int, std::string>> sim_tracks;
  int64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sim_tracks = sim_track_names_;
    dropped = dropped_;
  }

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };

  emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"wall clock\"}}");
  emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"tid\":0,"
       "\"args\":{\"name\":\"simulated time\"}}");
  for (const auto& [tid, track] : sim_tracks) {
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"name\":\"" + JsonEscape(track) +
         "\"}}");
  }

  // Per-track stack emission: every B gets a matching E, child ends are
  // clamped to their parent's end, and each track's timestamps come out
  // monotone by construction.
  struct Open {
    std::string name;
    int pid;
    int tid;
    double end_us;
  };
  std::vector<Open> stack;
  auto emit_begin = [&](const TraceEvent& e) {
    emit("{\"ph\":\"B\",\"name\":\"" + JsonEscape(e.name) +
         "\",\"pid\":" + std::to_string(e.pid) +
         ",\"tid\":" + std::to_string(e.tid) + ",\"ts\":" +
         FormatUs(e.start_us) + "}");
  };
  auto emit_end = [&](const Open& open) {
    emit("{\"ph\":\"E\",\"pid\":" + std::to_string(open.pid) +
         ",\"tid\":" + std::to_string(open.tid) + ",\"ts\":" +
         FormatUs(open.end_us) + "}");
  };
  auto drain = [&]() {
    while (!stack.empty()) {
      emit_end(stack.back());
      stack.pop_back();
    }
  };

  int current_pid = -1;
  int current_tid = -1;
  for (const TraceEvent& e : events) {
    if (e.pid != current_pid || e.tid != current_tid) {
      drain();
      current_pid = e.pid;
      current_tid = e.tid;
    }
    if (e.instant) {
      emit("{\"ph\":\"i\",\"name\":\"" + JsonEscape(e.name) +
           "\",\"pid\":" + std::to_string(e.pid) +
           ",\"tid\":" + std::to_string(e.tid) + ",\"ts\":" +
           FormatUs(e.start_us) + ",\"s\":\"t\"}");
      continue;
    }
    while (!stack.empty() && stack.back().end_us <= e.start_us) {
      emit_end(stack.back());
      stack.pop_back();
    }
    double end_us = e.end_us;
    if (!stack.empty()) end_us = std::min(end_us, stack.back().end_us);
    emit_begin(e);
    stack.push_back({e.name, e.pid, e.tid, end_us});
  }
  drain();

  // A trace the full ring truncated says so, so that it never reads as
  // complete.
  out += "\n],\"otherData\":{\"dropped_events\":" + std::to_string(dropped) +
         "}}\n";
  return out;
}

util::Status TraceRecorder::WriteChromeJson(const std::string& path) const {
  const std::string body = ToChromeJson();
  std::vector<uint8_t> bytes(body.begin(), body.end());
  return util::AtomicWriteFile(path, bytes);
}

void ScopedTrace::Finish() {
  const int64_t end_ns = MonotonicNowNs();
  if (histogram_ != nullptr) {
    histogram_->Observe(static_cast<double>(end_ns - start_ns_) * 1e-6);
  }
  TraceRecorder& recorder = TraceRecorder::Default();
  if (recorder.recording()) recorder.RecordSpan(name_, start_ns_, end_ns);
}

Histogram* ScopeHistogram(const char* name) {
  return Registry::Default().GetHistogram(name);
}

}  // namespace fedmigr::obs
