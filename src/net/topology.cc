#include "net/topology.h"

#include <algorithm>

#include "util/logging.h"

namespace fedmigr::net {

std::vector<int> EvenLanAssignment(int num_clients, int num_lans) {
  FEDMIGR_CHECK_GT(num_clients, 0);
  FEDMIGR_CHECK_GT(num_lans, 0);
  std::vector<int> lan_of(static_cast<size_t>(num_clients));
  // Contiguous blocks, remainder spread over the first LANs — matches the
  // 4/3/3 split for 10 clients over 3 LANs.
  const int base = num_clients / num_lans;
  const int extra = num_clients % num_lans;
  int client = 0;
  for (int lan = 0; lan < num_lans; ++lan) {
    const int size = base + (lan < extra ? 1 : 0);
    for (int i = 0; i < size; ++i) {
      lan_of[static_cast<size_t>(client++)] = lan;
    }
  }
  return lan_of;
}

Topology::Topology(TopologyConfig config) : config_(std::move(config)) {
  FEDMIGR_CHECK(!config_.lan_of.empty());
  FEDMIGR_CHECK_GT(config_.intra_lan_mbps, 0.0);
  FEDMIGR_CHECK_GT(config_.cross_lan_mbps, 0.0);
  FEDMIGR_CHECK_GT(config_.wan_mbps, 0.0);
  for (int lan : config_.lan_of) {
    FEDMIGR_CHECK_GE(lan, 0);
    num_lans_ = std::max(num_lans_, lan + 1);
  }
  // The dense K x K multiplier table is allocated lazily on the first
  // SetLinkMultiplier call: at fleet scale (K = 10^6) the table would be
  // 8 TB, and the sharded simulator never customizes links there.
}

int Topology::lan_of(int client) const {
  FEDMIGR_CHECK_GE(client, 0);
  FEDMIGR_CHECK_LT(client, num_clients());
  return config_.lan_of[static_cast<size_t>(client)];
}

int64_t Topology::LinkIndex(int a, int b) const {
  // 64-bit: a * K + b overflows int once K exceeds ~46k clients.
  return static_cast<int64_t>(a) * num_clients() + b;
}

double Topology::BandwidthMbps(int src, int dst) const {
  FEDMIGR_CHECK_NE(src, dst);
  if (src == kServerId || dst == kServerId) return config_.wan_mbps;
  const double base = SameLan(src, dst) ? config_.intra_lan_mbps
                                        : config_.cross_lan_mbps;
  return base * LinkMultiplier(src, dst);
}

double Topology::TransferSeconds(int src, int dst, int64_t bytes) const {
  const double mbps = BandwidthMbps(src, dst);
  const double bits = static_cast<double>(bytes) * 8.0;
  return config_.link_latency_s + bits / (mbps * 1e6);
}

void Topology::SetLinkMultiplier(int a, int b, double multiplier) {
  FEDMIGR_CHECK_GE(a, 0);
  FEDMIGR_CHECK_GE(b, 0);
  FEDMIGR_CHECK_NE(a, b);
  FEDMIGR_CHECK_GT(multiplier, 0.0);
  if (multipliers_.empty()) {
    const size_t k = config_.lan_of.size();
    multipliers_.assign(k * k, 1.0);
  }
  multipliers_[static_cast<size_t>(LinkIndex(a, b))] = multiplier;
  multipliers_[static_cast<size_t>(LinkIndex(b, a))] = multiplier;
}

double Topology::LinkMultiplier(int a, int b) const {
  if (multipliers_.empty()) return 1.0;
  return multipliers_[static_cast<size_t>(LinkIndex(a, b))];
}

}  // namespace fedmigr::net
