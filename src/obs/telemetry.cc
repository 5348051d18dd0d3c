#include "obs/telemetry.h"

namespace fedmigr::obs {

std::atomic<bool> Telemetry::enabled_{true};

}  // namespace fedmigr::obs
