#include "opt/qp.h"

#include <cmath>

#include "opt/simplex.h"
#include "util/logging.h"

namespace fedmigr::opt {

namespace {

void ColumnSums(const Matrix& p, std::vector<double>* sums) {
  const size_t k = p.size();
  sums->assign(k, 0.0);
  for (const auto& row : p) {
    for (size_t j = 0; j < k; ++j) (*sums)[j] += row[j];
  }
}

}  // namespace

double RowStochasticQpObjective(const Matrix& score, const Matrix& p,
                                double load_weight) {
  double linear = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    for (size_t j = 0; j < p.size(); ++j) linear += score[i][j] * p[i][j];
  }
  std::vector<double> cols;
  ColumnSums(p, &cols);
  double load = 0.0;
  for (double col : cols) load += col * col;
  return linear - 0.5 * load_weight * load;
}

QpResult SolveRowStochasticQp(const Matrix& score, const QpOptions& options) {
  const size_t k = score.size();
  FEDMIGR_CHECK_GT(k, 0u);
  for (const auto& row : score) FEDMIGR_CHECK_EQ(row.size(), k);

  // Start from the uniform row-stochastic matrix.
  QpResult result;
  result.solution.assign(k, std::vector<double>(k, 1.0 / static_cast<double>(k)));

  // One set of buffers serves every iteration: the next iterate of row i
  // is built in `row` and swapped in, and the old row becomes the buffer.
  std::vector<double> cols;
  std::vector<double> row;
  std::vector<double> sorted;
  for (int it = 0; it < options.max_iterations; ++it) {
    ColumnSums(result.solution, &cols);
    double movement = 0.0;
    for (size_t i = 0; i < k; ++i) {
      row = result.solution[i];
      // Gradient ascent on the objective: d/dP_ij = score_ij - w * col_j.
      for (size_t j = 0; j < k; ++j) {
        row[j] += options.step_size *
                  (score[i][j] - options.load_weight * cols[j]);
      }
      ProjectToSimplex(&row, &sorted);
      for (size_t j = 0; j < k; ++j) {
        const double diff = row[j] - result.solution[i][j];
        movement += diff * diff;
      }
      result.solution[i].swap(row);
    }
    result.iterations = it + 1;
    if (std::sqrt(movement) < options.tolerance) break;
  }
  result.objective =
      RowStochasticQpObjective(score, result.solution, options.load_weight);
  return result;
}

}  // namespace fedmigr::opt
