#include "opt/hungarian.h"

#include <limits>

#include "util/logging.h"

namespace fedmigr::opt {

std::vector<int> SolveAssignment(
    const std::vector<std::vector<double>>& cost) {
  const int n = static_cast<int>(cost.size());
  FEDMIGR_CHECK_GT(n, 0);
  for (const auto& row : cost) {
    FEDMIGR_CHECK_EQ(static_cast<int>(row.size()), n);
  }
  // Classic potentials formulation with 1-based padding (e-maxx style).
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(static_cast<size_t>(n + 1), 0.0);
  std::vector<double> v(static_cast<size_t>(n + 1), 0.0);
  std::vector<int> match(static_cast<size_t>(n + 1), 0);  // column -> row
  std::vector<int> way(static_cast<size_t>(n + 1), 0);

  for (int i = 1; i <= n; ++i) {
    match[0] = i;
    int j0 = 0;
    std::vector<double> minv(static_cast<size_t>(n + 1), kInf);
    std::vector<bool> used(static_cast<size_t>(n + 1), false);
    do {
      used[static_cast<size_t>(j0)] = true;
      const int i0 = match[static_cast<size_t>(j0)];
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[static_cast<size_t>(j)]) continue;
        const double cur = cost[static_cast<size_t>(i0 - 1)]
                               [static_cast<size_t>(j - 1)] -
                           u[static_cast<size_t>(i0)] -
                           v[static_cast<size_t>(j)];
        if (cur < minv[static_cast<size_t>(j)]) {
          minv[static_cast<size_t>(j)] = cur;
          way[static_cast<size_t>(j)] = j0;
        }
        if (minv[static_cast<size_t>(j)] < delta) {
          delta = minv[static_cast<size_t>(j)];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[static_cast<size_t>(j)]) {
          u[static_cast<size_t>(match[static_cast<size_t>(j)])] += delta;
          v[static_cast<size_t>(j)] -= delta;
        } else {
          minv[static_cast<size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (match[static_cast<size_t>(j0)] != 0);
    do {
      const int j1 = way[static_cast<size_t>(j0)];
      match[static_cast<size_t>(j0)] = match[static_cast<size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> assignment(static_cast<size_t>(n), -1);
  for (int j = 1; j <= n; ++j) {
    assignment[static_cast<size_t>(match[static_cast<size_t>(j)] - 1)] = j - 1;
  }
  return assignment;
}

}  // namespace fedmigr::opt
