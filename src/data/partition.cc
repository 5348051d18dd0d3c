#include "data/partition.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace fedmigr::data {

namespace {

// Indices of each class, shuffled.
std::vector<std::vector<int>> ClassIndexLists(const Dataset& dataset,
                                              util::Rng* rng) {
  std::vector<std::vector<int>> by_class(
      static_cast<size_t>(dataset.num_classes()));
  for (int i = 0; i < dataset.size(); ++i) {
    by_class[static_cast<size_t>(dataset.label(i))].push_back(i);
  }
  for (auto& list : by_class) rng->Shuffle(list);
  return by_class;
}

// Deals `items` as evenly as possible across `num_parts` parts, appending.
void DealRoundRobin(const std::vector<int>& items, int num_parts,
                    Partition* parts, const std::vector<int>& part_ids) {
  FEDMIGR_CHECK_EQ(static_cast<int>(part_ids.size()), num_parts);
  for (size_t i = 0; i < items.size(); ++i) {
    const int part = part_ids[i % static_cast<size_t>(num_parts)];
    (*parts)[static_cast<size_t>(part)].push_back(items[i]);
  }
}

}  // namespace

Partition PartitionIid(const Dataset& dataset, int num_clients,
                       util::Rng* rng) {
  FEDMIGR_CHECK_GT(num_clients, 0);
  std::vector<int> all(static_cast<size_t>(dataset.size()));
  std::iota(all.begin(), all.end(), 0);
  rng->Shuffle(all);
  Partition parts(static_cast<size_t>(num_clients));
  for (size_t i = 0; i < all.size(); ++i) {
    parts[i % static_cast<size_t>(num_clients)].push_back(all[i]);
  }
  return parts;
}

Partition PartitionByClassShards(const Dataset& dataset, int num_clients,
                                 int classes_per_client, util::Rng* rng) {
  FEDMIGR_CHECK_GT(num_clients, 0);
  FEDMIGR_CHECK_GT(classes_per_client, 0);
  const int num_classes = dataset.num_classes();
  auto by_class = ClassIndexLists(dataset, rng);

  // Deal whole classes to clients round-robin: client k gets classes
  // k, k + K, k + 2K, ... With num_classes == K * classes_per_client this is
  // an exact deal matching the paper's setting.
  Partition parts(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_classes; ++c) {
    const int client = c % num_clients;
    auto& part = parts[static_cast<size_t>(client)];
    const auto& idx = by_class[static_cast<size_t>(c)];
    part.insert(part.end(), idx.begin(), idx.end());
  }
  return parts;
}

Partition PartitionDominance(const Dataset& dataset, int num_clients, double p,
                             util::Rng* rng) {
  FEDMIGR_CHECK_GT(num_clients, 0);
  FEDMIGR_CHECK_GE(p, 0.0);
  FEDMIGR_CHECK_LE(p, 1.0);
  const int num_classes = dataset.num_classes();
  auto by_class = ClassIndexLists(dataset, rng);
  Partition parts(static_cast<size_t>(num_clients));

  // Owners of each class: client k dominates class k % num_classes.
  for (int c = 0; c < num_classes; ++c) {
    const auto& idx = by_class[static_cast<size_t>(c)];
    const int take = static_cast<int>(p * static_cast<double>(idx.size()));
    // Dominant share to every client whose unique class is c.
    std::vector<int> dominant_clients;
    for (int k = 0; k < num_clients; ++k) {
      if (k % num_classes == c) dominant_clients.push_back(k);
    }
    size_t cursor = 0;
    if (!dominant_clients.empty()) {
      // Split the dominant share among all claimants (usually one).
      for (size_t d = 0; d < dominant_clients.size(); ++d) {
        const size_t share =
            static_cast<size_t>(take) / dominant_clients.size();
        auto& part = parts[static_cast<size_t>(dominant_clients[d])];
        for (size_t i = 0; i < share && cursor < idx.size(); ++i) {
          part.push_back(idx[cursor++]);
        }
      }
    }
    // Remainder uniformly across the non-dominant clients.
    std::vector<int> others;
    for (int k = 0; k < num_clients; ++k) {
      if (k % num_classes != c) others.push_back(k);
    }
    if (others.empty()) {
      for (int k = 0; k < num_clients; ++k) others.push_back(k);
    }
    size_t j = 0;
    while (cursor < idx.size()) {
      parts[static_cast<size_t>(others[j % others.size()])].push_back(
          idx[cursor++]);
      ++j;
    }
  }
  return parts;
}

Partition PartitionByLanShards(const Dataset& dataset,
                               const std::vector<int>& lan_of,
                               util::Rng* rng) {
  FEDMIGR_CHECK(!lan_of.empty());
  const int num_clients = static_cast<int>(lan_of.size());
  int num_lans = 0;
  for (int lan : lan_of) num_lans = std::max(num_lans, lan + 1);
  const int num_classes = dataset.num_classes();
  FEDMIGR_CHECK_GE(num_classes, num_lans);
  auto by_class = ClassIndexLists(dataset, rng);

  // Contiguous class blocks per LAN (remainder to the last LAN).
  const int classes_per_lan = num_classes / num_lans;
  auto lan_of_class = [&](int c) {
    return std::min(c / classes_per_lan, num_lans - 1);
  };

  Partition parts(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_classes; ++c) {
    const int lan = lan_of_class(c);
    std::vector<int> members;
    for (int k = 0; k < num_clients; ++k) {
      if (lan_of[static_cast<size_t>(k)] == lan) members.push_back(k);
    }
    FEDMIGR_CHECK(!members.empty())
        << "LAN " << lan << " has no clients for class " << c;
    DealRoundRobin(by_class[static_cast<size_t>(c)],
                   static_cast<int>(members.size()), &parts, members);
  }
  return parts;
}

Partition PartitionClassLack(const Dataset& dataset, int num_clients,
                             int lack_classes, util::Rng* rng) {
  FEDMIGR_CHECK_GT(num_clients, 0);
  FEDMIGR_CHECK_GE(lack_classes, 0);
  const int num_classes = dataset.num_classes();
  FEDMIGR_CHECK_LT(lack_classes, num_classes);
  auto by_class = ClassIndexLists(dataset, rng);

  // Client k lacks a contiguous window of `lack_classes` classes starting
  // at an evenly-spread offset (window starts cover the whole class circle
  // even when there are fewer clients than classes, so every class keeps
  // at least one holder as long as lack_classes < num_classes - spacing).
  auto window_start = [&](int client) {
    return static_cast<int>(static_cast<int64_t>(client) * num_classes /
                            num_clients);
  };
  auto lacks = [&](int client, int c) {
    const int offset =
        (c - window_start(client) + num_classes) % num_classes;
    return offset < lack_classes;
  };

  Partition parts(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_classes; ++c) {
    std::vector<int> holders;
    for (int k = 0; k < num_clients; ++k) {
      if (!lacks(k, c)) holders.push_back(k);
    }
    FEDMIGR_CHECK(!holders.empty());
    // Shuffle so classes with fewer samples than holders don't
    // systematically starve the highest-id holders.
    rng->Shuffle(holders);
    DealRoundRobin(by_class[static_cast<size_t>(c)],
                   static_cast<int>(holders.size()), &parts, holders);
  }
  return parts;
}

}  // namespace fedmigr::data
