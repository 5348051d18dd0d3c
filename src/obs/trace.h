// Scoped profiling and Chrome trace-event export (DESIGN.md §11).
//
// Two clock domains, kept on separate Chrome-trace "processes":
//   pid 1 — wall clock. `FEDMIGR_TRACE_SCOPE` RAII timers measure real host
//     time per thread; durations aggregate into registry histograms (ms)
//     and, while the recorder is running, append span events to the ring.
//   pid 2 — simulated time. The edge simulator reports spans in simulated
//     seconds via RecordSimSpan, one named track per logical timeline
//     (e.g. per FL round phase), so a Perfetto view lines up what the
//     simulation *modelled* against what the host *spent*.
//
// All wall-clock reads in the codebase funnel through MonotonicNowNs here
// (plus the timestamp in util/logging.cc) — the fedmigr_lint `wallclock`
// rule bans std::chrono clock reads everywhere else, which is what keeps
// host timing from ever leaking into simulation state.
//
// The recorder is a fixed-capacity ring guarded by a mutex: appends are a
// lock + push, and once full new events are counted as dropped rather than
// reallocating. It is off by default; Start() is explicit (benches wire it
// to --trace-out).

#ifndef FEDMIGR_OBS_TRACE_H_
#define FEDMIGR_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/status.h"

namespace fedmigr::obs {

// Nanoseconds on the host monotonic clock (arbitrary epoch). The single
// sanctioned steady_clock read site outside util/logging.cc.
int64_t MonotonicNowNs();

// Small real-time timer for bench reporting.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(MonotonicNowNs()) {}
  void Restart() { start_ns_ = MonotonicNowNs(); }
  double ElapsedMs() const {
    return static_cast<double>(MonotonicNowNs() - start_ns_) * 1e-6;
  }
  double ElapsedSeconds() const { return ElapsedMs() * 1e-3; }

 private:
  int64_t start_ns_;
};

// One exported event, timestamps in microseconds within the pid's domain.
struct TraceEvent {
  std::string name;
  int pid = 1;  // 1 = wall clock, 2 = simulated time
  int tid = 1;
  double start_us = 0.0;
  double end_us = 0.0;  // == start_us for instants
  bool instant = false;
};

class TraceRecorder {
 public:
  static TraceRecorder& Default();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Begins recording into a fresh ring of `capacity` events; wall-clock
  // timestamps are rebased to this call.
  void Start(size_t capacity = 65536);
  void Stop();
  bool recording() const {
    return recording_.load(std::memory_order_acquire);
  }

  // Wall-clock span on the calling thread's track (pid 1).
  void RecordSpan(const std::string& name, int64_t start_ns, int64_t end_ns);
  // Simulated-time span in seconds on a named pid-2 track.
  void RecordSimSpan(const std::string& name, const std::string& track,
                     double start_s, double end_s);
  // Wall-clock point event on a dedicated instant track (pid 1, tid 0).
  void RecordInstant(const std::string& name);

  int64_t dropped() const;

  // Events in export order: grouped by (pid, tid), spans nested by the
  // B/E reconstruction described in ToChromeJson. Tests assert on this
  // instead of re-parsing JSON.
  std::vector<TraceEvent> ExportEvents() const;

  // Chrome trace-event JSON (object form, "traceEvents" array). Spans are
  // re-nested per track — sorted by (start asc, end desc), child ends
  // clamped to their parent — so emitted B/E pairs always match and each
  // track's timestamps are monotone. Load via Perfetto (ui.perfetto.dev)
  // or chrome://tracing.
  std::string ToChromeJson() const;
  util::Status WriteChromeJson(const std::string& path) const;

 private:
  struct StoredEvent {
    std::string name;
    int pid = 1;
    int tid = 1;
    double start_us = 0.0;
    double end_us = 0.0;
    bool instant = false;
  };

  void Append(StoredEvent event);
  int WallTidLocked(std::thread::id id);
  int SimTidLocked(const std::string& track);

  std::atomic<bool> recording_{false};
  mutable std::mutex mutex_;
  std::vector<StoredEvent> events_;
  size_t capacity_ = 0;
  int64_t dropped_ = 0;
  int64_t base_ns_ = 0;
  std::map<std::thread::id, int> wall_tids_;
  std::map<std::string, int> sim_tids_;
  std::vector<std::pair<int, std::string>> sim_track_names_;
};

// RAII wall-clock scope: observes elapsed ms into `histogram` and, when the
// default recorder is running, records a span. Both the construction-time
// clock read and all destruction work are skipped when telemetry is
// runtime-disabled.
class ScopedTrace {
 public:
  ScopedTrace(const char* name, Histogram* histogram)
      : name_(name), histogram_(histogram) {
    if (Telemetry::enabled()) start_ns_ = MonotonicNowNs();
  }
  ~ScopedTrace() {
    if (start_ns_ != 0) Finish();
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  void Finish();

  const char* name_;
  Histogram* histogram_;
  int64_t start_ns_ = 0;
};

// Registry histogram backing a FEDMIGR_TRACE_SCOPE site (ms, default
// exponential layout).
Histogram* ScopeHistogram(const char* name);

}  // namespace fedmigr::obs

#define FEDMIGR_TRACE_CONCAT_INNER(a, b) a##b
#define FEDMIGR_TRACE_CONCAT(a, b) FEDMIGR_TRACE_CONCAT_INNER(a, b)
// Times the enclosing scope under `name` (static histogram lookup happens
// once per site).
#define FEDMIGR_TRACE_SCOPE(name)                                         \
  static ::fedmigr::obs::Histogram* FEDMIGR_TRACE_CONCAT(                 \
      fedmigr_trace_hist_, __LINE__) = ::fedmigr::obs::ScopeHistogram(name); \
  ::fedmigr::obs::ScopedTrace FEDMIGR_TRACE_CONCAT(fedmigr_trace_scope_,  \
                                                   __LINE__)(             \
      name, FEDMIGR_TRACE_CONCAT(fedmigr_trace_hist_, __LINE__))

#endif  // FEDMIGR_OBS_TRACE_H_
