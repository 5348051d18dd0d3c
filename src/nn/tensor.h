// Dense row-major float tensor: the storage type for activations, weights
// and gradients throughout the NN substrate.
//
// The tensor is deliberately simple — no views, no broadcasting beyond the
// few helpers the layers need — because every consumer in this codebase
// operates on contiguous float buffers of known shape.

#ifndef FEDMIGR_NN_TENSOR_H_
#define FEDMIGR_NN_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fedmigr::nn {

// Shape of a tensor; up to 4 dimensions in practice ([N, C, H, W] for conv
// activations, [N, D] for dense activations, [out, in] for weights).
using Shape = std::vector<int>;

// Number of elements described by a shape.
int64_t NumElements(const Shape& shape);

// True when a loaded shape describes exactly `count` elements (an empty
// shape holds none); overflow-safe for corrupt shapes.
bool ShapeHoldsCount(const Shape& shape, uint64_t count);

// "[2, 3, 4]" — for error messages and logs.
std::string ShapeToString(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  // Tensor with explicit contents; data.size() must equal NumElements(shape).
  Tensor(Shape shape, std::vector<float> data);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  const Shape& shape() const { return shape_; }
  int dim(int i) const;
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  // Multi-dimensional accessors (bounds unchecked; the layers are the only
  // callers and validate shapes at construction). Inline: per-element loops
  // call them millions of times.
  float& At(int i, int j) { return data_[Index(i, j)]; }
  float At(int i, int j) const { return data_[Index(i, j)]; }
  float& At(int i, int j, int k, int l) { return data_[Index(i, j, k, l)]; }
  float At(int i, int j, int k, int l) const {
    return data_[Index(i, j, k, l)];
  }

  // Reinterprets the buffer with a new shape of identical element count.
  void Reshape(Shape shape);

  void Fill(float value);
  void Zero() { Fill(0.0f); }

  // this += other (same shape).
  void Add(const Tensor& other);
  // this += alpha * other (same shape).
  void Axpy(float alpha, const Tensor& other);
  // this *= alpha.
  void Scale(float alpha);

  // L2 norm of the flattened tensor.
  double Norm() const;

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  // Snapshot layout (util/serial.h): the shape, then the counted floats.
  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(shape_);
    ar.Io(data_);
    ar.Check([&] { return ShapeHoldsCount(shape_, data_.size()); },
             "tensor element count does not match shape");
    return ar.status();
  }

 private:
  size_t Index(int i, int j) const {
    return static_cast<size_t>(i) * shape_[1] + j;
  }
  size_t Index(int i, int j, int k, int l) const {
    return ((static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k) *
               shape_[3] +
           l;
  }

  Shape shape_;
  std::vector<float> data_;
};

// out = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_TENSOR_H_
