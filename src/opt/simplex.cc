#include "opt/simplex.h"

#include <algorithm>

#include "util/logging.h"

namespace fedmigr::opt {

void ProjectToSimplex(std::vector<double>* v, std::vector<double>* scratch) {
  FEDMIGR_CHECK(!v->empty());
  std::vector<double>& sorted = *scratch;
  sorted = *v;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumulative = 0.0;
  double theta = 0.0;
  int support = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    cumulative += sorted[i];
    const double candidate =
        (cumulative - 1.0) / static_cast<double>(i + 1);
    if (sorted[i] - candidate > 0.0) {
      theta = candidate;
      support = static_cast<int>(i + 1);
    }
  }
  FEDMIGR_CHECK_GT(support, 0);
  for (auto& x : *v) x = std::max(0.0, x - theta);
}

}  // namespace fedmigr::opt
