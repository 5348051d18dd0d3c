// Process resource observation: peak resident set size.
//
// The scalability acceptance gate ("1M clients under 4 GB") and the
// `proc/peak_rss_bytes` gauge both read the kernel's high-water mark
// (VmHWM in /proc/self/status). Read-only observation: like everything in
// src/obs it must never feed back into simulation state.

#ifndef FEDMIGR_OBS_RESOURCE_H_
#define FEDMIGR_OBS_RESOURCE_H_

#include <cstdint>

namespace fedmigr::obs {

// Peak resident set size of this process in bytes; 0 when the platform
// does not expose it (non-Linux).
int64_t PeakRssBytes();

// Refreshes the `proc/peak_rss_bytes` registry gauge. No-op when telemetry
// is disabled.
void UpdateResourceGauges();

}  // namespace fedmigr::obs

#endif  // FEDMIGR_OBS_RESOURCE_H_
