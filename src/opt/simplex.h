// Euclidean projection onto the probability simplex
// { x : x_i >= 0, sum x_i = 1 } — the building block of the projected-
// gradient QP solver for the relaxed FLMM problem.

#ifndef FEDMIGR_OPT_SIMPLEX_H_
#define FEDMIGR_OPT_SIMPLEX_H_

#include <vector>

namespace fedmigr::opt {

// Projects `v` in place onto the probability simplex (Duchi et al. 2008,
// O(n log n) sort-based algorithm). The sort runs in `scratch`
// (overwritten), so a caller projecting many rows allocates it once.
void ProjectToSimplex(std::vector<double>* v, std::vector<double>* scratch);

}  // namespace fedmigr::opt

#endif  // FEDMIGR_OPT_SIMPLEX_H_
