#include "net/traffic.h"

#include <algorithm>

#include "net/topology.h"
#include "util/logging.h"

namespace fedmigr::net {

std::pair<int, int> TrafficAccountant::Key(int a, int b) {
  return {std::min(a, b), std::max(a, b)};
}

void TrafficAccountant::Record(int src, int dst, int64_t bytes) {
  FEDMIGR_CHECK_GE(bytes, 0);
  FEDMIGR_CHECK_NE(src, dst);
  ++num_transfers_;
  if (src == kServerId || dst == kServerId) {
    c2s_bytes_ += bytes;
    if (dst == kServerId) {
      c2s_up_bytes_ += bytes;
    } else {
      c2s_down_bytes_ += bytes;
    }
  } else {
    c2c_bytes_ += bytes;
  }
  link_counts_[Key(src, dst)] += 1;
}

double TrafficAccountant::c2s_gb() const {
  return static_cast<double>(c2s_bytes_) / 1e9;
}

double TrafficAccountant::c2c_gb() const {
  return static_cast<double>(c2c_bytes_) / 1e9;
}

double TrafficAccountant::c2s_up_gb() const {
  return static_cast<double>(c2s_up_bytes_) / 1e9;
}

double TrafficAccountant::c2s_down_gb() const {
  return static_cast<double>(c2s_down_bytes_) / 1e9;
}

int64_t TrafficAccountant::LinkCount(int a, int b) const {
  const auto it = link_counts_.find(Key(a, b));
  return it == link_counts_.end() ? 0 : it->second;
}

}  // namespace fedmigr::net
