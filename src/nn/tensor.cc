#include "nn/tensor.h"

#include <cmath>

#include "util/logging.h"

namespace fedmigr::nn {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int d : shape) {
    FEDMIGR_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

bool ShapeHoldsCount(const Shape& shape, uint64_t count) {
  if (shape.empty()) return count == 0;
  for (int d : shape) {
    if (d < 0) return false;
    if (d == 0) return count == 0;
  }
  uint64_t elements = 1;
  for (int d : shape) {
    if (elements > count / static_cast<uint64_t>(d)) return false;
    elements *= static_cast<uint64_t>(d);
  }
  return elements == count;
}

std::string ShapeToString(const Shape& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(NumElements(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  FEDMIGR_CHECK_EQ(static_cast<int64_t>(data_.size()), NumElements(shape_));
}

int Tensor::dim(int i) const {
  FEDMIGR_CHECK_GE(i, 0);
  FEDMIGR_CHECK_LT(i, ndim());
  return shape_[static_cast<size_t>(i)];
}

void Tensor::Reshape(Shape shape) {
  FEDMIGR_CHECK_EQ(NumElements(shape), size());
  shape_ = std::move(shape);
}

void Tensor::Fill(float value) {
  for (auto& x : data_) x = value;
}

void Tensor::Add(const Tensor& other) {
  FEDMIGR_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  FEDMIGR_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Tensor::Scale(float alpha) {
  for (auto& x : data_) x *= alpha;
}

double Tensor::Sum() const {
  double sum = 0.0;
  for (float x : data_) sum += x;
  return sum;
}

double Tensor::Norm() const {
  double sum = 0.0;
  for (float x : data_) sum += static_cast<double>(x) * x;
  return std::sqrt(sum);
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.Add(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.Axpy(-1.0f, b);
  return out;
}

Tensor Scale(const Tensor& a, float alpha) {
  Tensor out = a;
  out.Scale(alpha);
  return out;
}

double Dot(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.size(), b.size());
  float max_diff = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

}  // namespace fedmigr::nn
