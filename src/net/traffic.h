// Traffic accounting: every simulated byte that crosses a link is recorded
// here, split into C2S (global, WAN) and C2C (migration) traffic, with
// per-link transfer counts for the link-selection-frequency analysis of
// Fig. 8.

#ifndef FEDMIGR_NET_TRAFFIC_H_
#define FEDMIGR_NET_TRAFFIC_H_

#include <cstdint>
#include <map>
#include <utility>

#include "util/serial.h"

namespace fedmigr::net {

class TrafficAccountant {
 public:
  // Records a transfer of `bytes` from `src` to `dst` (either endpoint may
  // be kServerId).
  void Record(int src, int dst, int64_t bytes);

  int64_t total_bytes() const { return c2s_bytes_ + c2c_bytes_; }
  int64_t c2s_bytes() const { return c2s_bytes_; }
  int64_t c2c_bytes() const { return c2c_bytes_; }
  // Directional split of the C2S total: uploads terminate at the server
  // (dst == kServerId), downloads originate there. The split keeps
  // dropped-straggler uploads — charged but never aggregated — from being
  // conflated with distribution traffic in per-round bench accounting.
  int64_t c2s_up_bytes() const { return c2s_up_bytes_; }
  int64_t c2s_down_bytes() const { return c2s_down_bytes_; }
  int64_t num_transfers() const { return num_transfers_; }

  double c2s_gb() const;
  double c2c_gb() const;
  double c2s_up_gb() const;
  double c2s_down_gb() const;

  // Transfer count over the undirected client pair {a, b}; 0 if never used.
  int64_t LinkCount(int a, int b) const;

  // Snapshot layout: the full accounting state, including the per-link
  // transfer counts behind the Fig. 8 analysis.
  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(c2s_bytes_);
    ar.Io(c2c_bytes_);
    ar.Io(c2s_up_bytes_);
    ar.Io(c2s_down_bytes_);
    ar.Io(num_transfers_);
    ar.Io(link_counts_);
    return ar.status();
  }

 private:
  static std::pair<int, int> Key(int a, int b);

  int64_t c2s_bytes_ = 0;
  int64_t c2c_bytes_ = 0;
  int64_t c2s_up_bytes_ = 0;
  int64_t c2s_down_bytes_ = 0;
  int64_t num_transfers_ = 0;
  std::map<std::pair<int, int>, int64_t> link_counts_;
};

}  // namespace fedmigr::net

#endif  // FEDMIGR_NET_TRAFFIC_H_
