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

}  // namespace fedmigr::nn
