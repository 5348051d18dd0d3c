// Client data partitioners.
//
// These implement every partition scheme the paper's evaluation uses
// (Sections IV-C and IV-D): IID, one-class-per-client shards, k-classes-per-
// client shards, the testbed's p%-dominance skew for CIFAR-10, and the
// class-lack skew for CIFAR-100. A partition is a list of index lists, one
// per client, into a train Dataset.

#ifndef FEDMIGR_DATA_PARTITION_H_
#define FEDMIGR_DATA_PARTITION_H_

#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace fedmigr::data {

using Partition = std::vector<std::vector<int>>;

// Uniform random split into `num_clients` equal-size parts.
Partition PartitionIid(const Dataset& dataset, int num_clients,
                       util::Rng* rng);

// Each client holds `classes_per_client` whole classes (the paper's non-IID
// setting: 1 class per client for C10 with 10 clients, 5 classes per client
// for C100 with 20 clients). Classes are dealt round-robin; requires
// num_classes == num_clients * classes_per_client for an exact deal, and
// otherwise deals as evenly as possible.
Partition PartitionByClassShards(const Dataset& dataset, int num_clients,
                                 int classes_per_client, util::Rng* rng);

// Testbed CIFAR-10 skew: client k holds fraction `p` of one unique class
// (class k % num_classes) and the remaining samples of every class are
// spread uniformly over the other clients. p = 1/num_classes reduces to IID.
Partition PartitionDominance(const Dataset& dataset, int num_clients, double p,
                             util::Rng* rng);

// LAN-correlated skew (the paper's motivating layout: "data collected by
// the clients within a LAN often have similar features and labels"). The
// label space is split contiguously across LANs; within a LAN every client
// receives the same mixture of that LAN's classes. `lan_of[k]` gives client
// k's LAN.
Partition PartitionByLanShards(const Dataset& dataset,
                               const std::vector<int>& lan_of,
                               util::Rng* rng);

// Testbed CIFAR-100 skew: every client lacks `lack_classes` classes
// (assigned round-robin); each class's samples are spread uniformly over the
// clients that do have it. lack_classes = 0 reduces to IID.
Partition PartitionClassLack(const Dataset& dataset, int num_clients,
                             int lack_classes, util::Rng* rng);

}  // namespace fedmigr::data

#endif  // FEDMIGR_DATA_PARTITION_H_
