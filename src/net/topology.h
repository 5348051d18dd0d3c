// Edge-network topology: clients grouped into LANs, one parameter server
// reachable over the WAN. Link bandwidths drive both traffic accounting and
// completion-time simulation.
//
// The model follows Section IV-C/IV-D of the paper: communication within a
// LAN is cheap, C2C across LANs is moderate, client-to-server (C2S) over the
// WAN is the scarce resource. Per-link multipliers allow heterogeneous C2C
// speeds (fast/moderate/slow links of Fig. 8).

#ifndef FEDMIGR_NET_TOPOLOGY_H_
#define FEDMIGR_NET_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace fedmigr::net {

// Node id of the parameter server in (src, dst) pairs.
inline constexpr int kServerId = -1;

struct TopologyConfig {
  // LAN membership: lan_of[k] is the LAN index of client k. Size K.
  std::vector<int> lan_of;
  double intra_lan_mbps = 300.0;   // C2C within a LAN
  double cross_lan_mbps = 60.0;    // C2C across LANs
  double wan_mbps = 20.0;          // C2S (the paper's ~50 Mbps shared WAN)
  double link_latency_s = 0.01;    // per-transfer fixed latency
};

// Evenly splits `num_clients` across `num_lans` LANs (the paper's 3 LANs of
// sizes 4/3/3 for C10, 5 LANs x 4 clients for C100).
std::vector<int> EvenLanAssignment(int num_clients, int num_lans);

class Topology {
 public:
  // Default: a trivial single-client, single-LAN network. Exists so value
  // members can be default-constructed and later assigned.
  Topology() : Topology(TopologyConfig{.lan_of = {0}}) {}
  explicit Topology(TopologyConfig config);

  int num_clients() const { return static_cast<int>(config_.lan_of.size()); }
  int num_lans() const { return num_lans_; }
  int lan_of(int client) const;
  bool SameLan(int a, int b) const { return lan_of(a) == lan_of(b); }

  // Effective bandwidth of the (src, dst) link in Mbps. Either endpoint may
  // be kServerId. src == dst yields +inf semantics (no transfer); callers
  // should not ask for it — CHECK-fails.
  double BandwidthMbps(int src, int dst) const;

  // Seconds to move `bytes` over the (src, dst) link, incl. fixed latency.
  double TransferSeconds(int src, int dst, int64_t bytes) const;

  // Scales the bandwidth of one C2C link pair (applied symmetrically).
  // Multiplier < 1 slows the link (Fig. 8's "slow" links).
  void SetLinkMultiplier(int a, int b, double multiplier);
  double LinkMultiplier(int a, int b) const;

  const TopologyConfig& config() const { return config_; }

 private:
  int64_t LinkIndex(int a, int b) const;

  TopologyConfig config_;
  int num_lans_ = 0;
  // Dense K x K multiplier table for C2C links; empty means identity. Only
  // allocated on the first SetLinkMultiplier call — a million-client fleet
  // with uniform links must not pay K^2 doubles.
  std::vector<double> multipliers_;
};

}  // namespace fedmigr::net

#endif  // FEDMIGR_NET_TOPOLOGY_H_
