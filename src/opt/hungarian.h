// Hungarian (Kuhn-Munkres) algorithm for the minimum-cost assignment
// problem, O(n^3). Used to round the fractional FLMM relaxation to a
// one-to-one migration assignment.

#ifndef FEDMIGR_OPT_HUNGARIAN_H_
#define FEDMIGR_OPT_HUNGARIAN_H_

#include <vector>

namespace fedmigr::opt {

// Solves min sum_i cost[i][assignment[i]] over permutations of an n x n cost
// matrix. Returns the assignment (row -> column).
std::vector<int> SolveAssignment(
    const std::vector<std::vector<double>>& cost);

}  // namespace fedmigr::opt

#endif  // FEDMIGR_OPT_HUNGARIAN_H_
