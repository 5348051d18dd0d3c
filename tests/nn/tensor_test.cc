#include "nn/tensor.h"

#include <gtest/gtest.h>

#include "nn/tensor_helpers.h"

namespace fedmigr::nn {
namespace {

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(NumElements({}), 1);
  EXPECT_EQ(NumElements({5}), 5);
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
  EXPECT_EQ(NumElements({0, 7}), 0);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
  EXPECT_EQ(ShapeToString({}), "[]");
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ConstructFromData) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t.At(1, 1), 4.0f);
}

TEST(TensorTest, FourDAccessorRowMajor) {
  Tensor t({2, 2, 2, 2});
  t.At(1, 1, 1, 1) = 5.0f;
  EXPECT_EQ(t[15], 5.0f);
  t.At(0, 1, 0, 1) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.Reshape({3, 2});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(2, 1), 6.0f);
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 3);
}

TEST(TensorTest, FillAndZero) {
  Tensor t({4});
  t.Fill(2.5f);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 2.5f);
  t.Zero();
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, AddAndAxpy) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.Add(b);
  EXPECT_EQ(a[0], 11.0f);
  a.Axpy(0.5f, b);
  EXPECT_EQ(a[2], 48.0f);
}

TEST(TensorTest, Scale) {
  Tensor a({2}, {2, -4});
  a.Scale(0.5f);
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(a[1], -2.0f);
}

TEST(TensorTest, Norm) {
  Tensor a({2}, {3, 4});
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
}

TEST(TensorTest, FreeFunctions) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 5});
  const Tensor sum = Add(a, b);
  EXPECT_EQ(sum[0], 4.0f);
  EXPECT_EQ(sum[1], 7.0f);
}

TEST(TensorTest, MaxAbsDiff) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {1, 5, 2});
  EXPECT_EQ(MaxAbsDiff(a, b), 3.0f);
  EXPECT_EQ(MaxAbsDiff(a, a), 0.0f);
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE(Tensor({2, 3}).SameShape(Tensor({2, 3})));
  EXPECT_FALSE(Tensor({2, 3}).SameShape(Tensor({3, 2})));
}

TEST(TensorTest, EmptyTensor) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
}

}  // namespace
}  // namespace fedmigr::nn
