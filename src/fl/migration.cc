#include "fl/migration.h"

#include <algorithm>

#include "util/logging.h"

namespace fedmigr::fl {

MigrationPlan MigrationPlan::Identity(int num_clients) {
  MigrationPlan plan;
  plan.incoming.resize(static_cast<size_t>(num_clients));
  for (int j = 0; j < num_clients; ++j) {
    plan.incoming[static_cast<size_t>(j)] = j;
  }
  return plan;
}

int MigrationPlan::NumMoves() const {
  int moves = 0;
  for (size_t j = 0; j < incoming.size(); ++j) {
    if (incoming[j] != static_cast<int>(j)) ++moves;
  }
  return moves;
}

bool MigrationPlan::IsPermutation() const {
  std::vector<int> seen(incoming.size(), 0);
  for (int i : incoming) {
    if (i < 0 || i >= static_cast<int>(incoming.size())) return false;
    if (++seen[static_cast<size_t>(i)] > 1) return false;
  }
  return true;
}

MigrationPlan PlanFromDestinations(const std::vector<int>& destination,
                                   bool via_server) {
  const int k = static_cast<int>(destination.size());
  MigrationPlan plan = MigrationPlan::Identity(k);
  plan.via_server = via_server;
  std::vector<bool> receives(static_cast<size_t>(k), false);
  for (int i = 0; i < k; ++i) {
    const int j = destination[static_cast<size_t>(i)];
    FEDMIGR_CHECK_GE(j, 0);
    FEDMIGR_CHECK_LT(j, k);
    if (j == i) continue;
    FEDMIGR_CHECK(!receives[static_cast<size_t>(j)])
        << "client " << j << " receives two models";
    receives[static_cast<size_t>(j)] = true;
    plan.incoming[static_cast<size_t>(j)] = i;
  }
  return plan;
}

MigrationExecution ExecuteWithFaults(const MigrationPlan& plan,
                                     const net::Topology& topology,
                                     int64_t model_bytes,
                                     net::TrafficAccountant* traffic,
                                     net::FaultInjector* faults,
                                     const std::vector<int>& node_ids) {
  FEDMIGR_CHECK(faults != nullptr);
  FEDMIGR_CHECK_EQ(node_ids.size(), plan.incoming.size());
  MigrationExecution exec;
  exec.delivered.assign(plan.incoming.size(), false);
  exec.corrupted.assign(plan.incoming.size(), false);
  exec.via_fallback.assign(plan.incoming.size(), false);
  for (size_t j = 0; j < plan.incoming.size(); ++j) {
    if (plan.incoming[j] == static_cast<int>(j)) continue;
    const int src = node_ids[static_cast<size_t>(plan.incoming[j])];
    const int dst = node_ids[j];
    ++exec.cost.num_moves;
    double seconds = 0.0;
    bool delivered = true;
    bool corrupted = false;
    bool used_fallback = false;
    if (plan.via_server) {
      // Two WAN hops: src -> server, server -> dst.
      const net::TransferResult up =
          faults->Transfer(src, net::kServerId, model_bytes, topology, traffic);
      seconds = up.seconds;
      exec.cost.bytes += up.bytes;
      if (up.status.ok()) {
        const net::TransferResult down = faults->Transfer(
            net::kServerId, dst, model_bytes, topology, traffic);
        seconds += down.seconds;
        exec.cost.bytes += down.bytes;
        delivered = down.status.ok();
        corrupted = up.corrupted || down.corrupted;
      } else {
        delivered = false;
      }
    } else {
      const net::TransferResult direct =
          faults->Transfer(src, dst, model_bytes, topology, traffic);
      seconds = direct.seconds;
      exec.cost.bytes += direct.bytes;
      delivered = direct.status.ok();
      corrupted = direct.corrupted;
      if (!delivered && faults->config().server_fallback) {
        // The direct link gave up: re-route through the parameter server,
        // charged as C2S both ways.
        ++exec.fallback_moves;
        used_fallback = true;
        faults->CountFallback();
        const net::TransferResult up = faults->Transfer(
            src, net::kServerId, model_bytes, topology, traffic);
        seconds += up.seconds;
        exec.cost.bytes += up.bytes;
        if (up.status.ok()) {
          const net::TransferResult down = faults->Transfer(
              net::kServerId, dst, model_bytes, topology, traffic);
          seconds += down.seconds;
          exec.cost.bytes += down.bytes;
          delivered = down.status.ok();
          corrupted = up.corrupted || down.corrupted;
        }
      }
    }
    if (delivered) {
      exec.delivered[j] = true;
      exec.corrupted[j] = corrupted;
      exec.via_fallback[j] = used_fallback;
    } else {
      ++exec.failed_moves;
    }
    // Transfers run in parallel; the round takes as long as the slowest.
    exec.cost.seconds = std::max(exec.cost.seconds, seconds);
  }
  return exec;
}

}  // namespace fedmigr::fl
