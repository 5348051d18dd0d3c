#include "opt/flmm.h"

#include <algorithm>

#include "obs/trace.h"
#include "opt/hungarian.h"
#include "util/logging.h"

namespace fedmigr::opt {

Matrix BuildMigrationScore(const std::vector<std::vector<double>>& divergence,
                           const net::Topology& topology, int64_t model_bytes,
                           double comm_weight) {
  const int k = topology.num_clients();
  FEDMIGR_CHECK_EQ(static_cast<int>(divergence.size()), k);

  // Normalize transfer times by the slowest pair so divergence (O(1)) and
  // the comm penalty share a scale.
  double max_time = 0.0;
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i == j) continue;
      max_time = std::max(max_time,
                          topology.TransferSeconds(i, j, model_bytes));
    }
  }
  if (max_time <= 0.0) max_time = 1.0;

  Matrix score(static_cast<size_t>(k), std::vector<double>(k, 0.0));
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i == j) continue;  // staying put: zero gain, zero cost
      const double time =
          topology.TransferSeconds(i, j, model_bytes) / max_time;
      score[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          divergence[static_cast<size_t>(i)][static_cast<size_t>(j)] -
          comm_weight * time;
    }
  }
  return score;
}

FlmmPlan SolveFlmm(const std::vector<std::vector<double>>& divergence,
                   const net::Topology& topology, int64_t model_bytes,
                   const FlmmOptions& options) {
  FEDMIGR_TRACE_SCOPE("opt/flmm");
  const Matrix score = BuildMigrationScore(divergence, topology, model_bytes,
                                           options.comm_weight);
  const QpResult qp = SolveRowStochasticQp(score, options.qp);

  // Round: Hungarian on the negated "support-weighted" score, so rows prefer
  // destinations the relaxation already favoured.
  const size_t k = score.size();
  Matrix cost(k, std::vector<double>(k, 0.0));
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      cost[i][j] = -(score[i][j] * (0.5 + qp.solution[i][j]));
    }
  }
  FlmmPlan plan;
  plan.destination = SolveAssignment(cost);
  plan.fractional = qp.solution;
  plan.objective = qp.objective;
  plan.qp_iterations = qp.iterations;

  // A destination with negative score is worse than staying local; keep the
  // model at home in that case (the paper's "no migration in the extreme
  // case of very slow links").
  for (size_t i = 0; i < k; ++i) {
    const int j = plan.destination[i];
    if (score[i][static_cast<size_t>(j)] < 0.0) {
      plan.destination[i] = static_cast<int>(i);
    }
  }
  return plan;
}

}  // namespace fedmigr::opt
