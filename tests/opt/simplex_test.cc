#include "opt/simplex.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fedmigr::opt {
namespace {

// The projection of `v`, through the in-place form the program calls.
std::vector<double> ProjectedToSimplex(std::vector<double> v) {
  std::vector<double> scratch;
  ProjectToSimplex(&v, &scratch);
  return v;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

TEST(SimplexTest, AlreadyOnSimplexIsFixed) {
  std::vector<double> v = {0.2, 0.3, 0.5};
  const auto p = ProjectedToSimplex(v);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(p[i], v[i], 1e-12);
}

TEST(SimplexTest, SingleElement) {
  EXPECT_EQ(ProjectedToSimplex({42.0}), (std::vector<double>{1.0}));
  EXPECT_EQ(ProjectedToSimplex({-3.0}), (std::vector<double>{1.0}));
}

TEST(SimplexTest, UniformForEqualEntries) {
  const auto p = ProjectedToSimplex({7.0, 7.0, 7.0, 7.0});
  for (double x : p) EXPECT_NEAR(x, 0.25, 1e-12);
}

TEST(SimplexTest, LargeEntryDominates) {
  const auto p = ProjectedToSimplex({100.0, 0.0, 0.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(SimplexTest, ProjectionIsFeasible) {
  util::Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> v(1 + static_cast<size_t>(rng.UniformInt(10)));
    for (auto& x : v) x = rng.Normal(0.0, 5.0);
    const auto p = ProjectedToSimplex(v);
    EXPECT_NEAR(Sum(p), 1.0, 1e-9);
    for (double x : p) EXPECT_GE(x, 0.0);
  }
}

TEST(SimplexTest, ProjectionIsClosestPoint) {
  // Verify optimality against random feasible points.
  util::Rng rng(4);
  std::vector<double> v = {0.9, -0.4, 1.3, 0.1};
  const auto p = ProjectedToSimplex(v);
  auto dist_sq = [&v](const std::vector<double>& x) {
    double d = 0.0;
    for (size_t i = 0; i < v.size(); ++i) {
      d += (x[i] - v[i]) * (x[i] - v[i]);
    }
    return d;
  };
  const double opt = dist_sq(p);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> candidate(v.size());
    double total = 0.0;
    for (auto& x : candidate) {
      x = rng.Uniform();
      total += x;
    }
    for (auto& x : candidate) x /= total;
    EXPECT_GE(dist_sq(candidate) + 1e-12, opt);
  }
}

TEST(SimplexTest, OrderPreserving) {
  // Projection preserves the ordering of coordinates.
  const auto p = ProjectedToSimplex({3.0, 1.0, 2.0});
  EXPECT_GE(p[0], p[2]);
  EXPECT_GE(p[2], p[1]);
}

}  // namespace
}  // namespace fedmigr::opt
