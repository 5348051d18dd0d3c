// Global telemetry switch for the observability layer (DESIGN.md §11).
//
// Telemetry is always compiled in. Telemetry::Disable() clears a relaxed
// atomic flag, reducing every FEDMIGR_TRACE_SCOPE and guarded metric update
// to a single predictable branch (no clock reads, no atomic RMWs).
//
// Determinism rule: nothing in src/obs may feed back into simulation state.
// Wall-clock reads live only behind obs interfaces (enforced by the
// fedmigr_lint `wallclock` rule); metrics and traces are observation-only,
// so runs are bit-identical with telemetry on or off.

#ifndef FEDMIGR_OBS_TELEMETRY_H_
#define FEDMIGR_OBS_TELEMETRY_H_

#include <atomic>

namespace fedmigr::obs {

class Telemetry {
 public:
  // True unless runtime-disabled.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  static void Enable() { SetEnabled(true); }
  static void Disable() { SetEnabled(false); }

 private:
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  static std::atomic<bool> enabled_;
};

}  // namespace fedmigr::obs

#endif  // FEDMIGR_OBS_TELEMETRY_H_
