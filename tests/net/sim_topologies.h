// The paper's two simulation topologies, as fixtures for tests. Programs
// build theirs with net::EvenLanAssignment in core::MakeWorkload.

#ifndef FEDMIGR_TESTS_NET_SIM_TOPOLOGIES_H_
#define FEDMIGR_TESTS_NET_SIM_TOPOLOGIES_H_

#include <utility>

#include "net/topology.h"

namespace fedmigr::net {

// The C10 simulation topology: 10 clients in LANs {0,1,2,3}, {4,5,6},
// {7,8,9}.
inline Topology MakeC10SimTopology() {
  TopologyConfig config;
  config.lan_of = {0, 0, 0, 0, 1, 1, 1, 2, 2, 2};
  return Topology(std::move(config));
}

// The C100 simulation topology: 20 clients in 5 LANs of 4.
inline Topology MakeC100SimTopology() {
  TopologyConfig config;
  config.lan_of = EvenLanAssignment(20, 5);
  return Topology(std::move(config));
}

}  // namespace fedmigr::net

#endif  // FEDMIGR_TESTS_NET_SIM_TOPOLOGIES_H_
