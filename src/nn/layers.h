// Concrete layers: Dense, Conv2D, MaxPool2x2, ReLU, Flatten, ResidualDense.
//
// All layers follow the Layer contract in layer.h. Shapes:
//   Dense     [N, in]           -> [N, out]
//   Conv2D    [N, Cin, H, W]    -> [N, Cout, H', W']  (stride 1, zero pad)
//   MaxPool   [N, C, H, W]      -> [N, C, H/2, W/2]
//   Flatten   [N, ...]          -> [N, prod(...)]
//   ReLU      elementwise, shape-preserving.

#ifndef FEDMIGR_NN_LAYERS_H_
#define FEDMIGR_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/scratch.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace fedmigr::nn {

// Fully connected layer: y = x W^T + b, with W of shape [out, in].
class Dense : public Layer {
 public:
  Dense(int in_features, int out_features, util::Rng* rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  // dW takes dY_sᵀ·X_s one segment at a time (SgemmSegments), and a null
  // grad_input skips dX = dY·W. Backward is its one-segment case.
  void BackwardSegments(const Tensor& grad_output, RowSegments segments,
                        Tensor* grad_input) override;
  std::vector<Tensor*> Params() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> Grads() override {
    return {&grad_weights_, &grad_bias_};
  }
  void ReleaseBuffers() override;
  std::string name() const override { return "Dense"; }
  std::unique_ptr<Layer> Clone() const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  Dense() = default;  // for Clone

  int in_features_ = 0;
  int out_features_ = 0;
  Tensor weights_;       // [out, in]
  Tensor bias_;          // [out]
  Tensor grad_weights_;  // [out, in]
  Tensor grad_bias_;     // [out]
  Tensor cached_input_;  // [N, in]
};

// 2-D convolution, stride 1, symmetric zero padding.
//
// A training forward lowers its batch into the calling thread's
// ColumnWorkspace and keeps the slot's Token; the backward reads those
// columns while the Token still owns the slot on the thread it runs on, and
// otherwise lowers cached_input_ again. An inference forward drops the
// Token. The gradient bytes are the same either way.
class Conv2D : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel_size, int pad,
         util::Rng* rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  // Skips the input-gradient GEMM Kᵀ·dY and its Col2im.
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Tensor*> Params() override { return {&kernel_, &bias_}; }
  std::vector<Tensor*> Grads() override { return {&grad_kernel_, &grad_bias_}; }
  void ReleaseBuffers() override;
  std::string name() const override { return "Conv2D"; }
  std::unique_ptr<Layer> Clone() const override;

 private:
  Conv2D() = default;

  // Accumulates the parameter gradients; fills *grad_input unless null.
  void AccumulateBackward(const Tensor& grad_output, Tensor* grad_input);

  int in_channels_ = 0;
  int out_channels_ = 0;
  int kernel_size_ = 0;
  int pad_ = 0;
  Tensor kernel_;  // [out, in, k, k]
  Tensor bias_;    // [out]
  Tensor grad_kernel_;
  Tensor grad_bias_;
  Tensor cached_input_;
  ColumnWorkspace::Token columns_;  // the last training forward's columns
};

// 2x2 max pooling with stride 2.
class MaxPool2x2 : public Layer {
 public:
  MaxPool2x2() = default;

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void ReleaseBuffers() override { argmax_ = Tensor(); }
  std::string name() const override { return "MaxPool2x2"; }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<MaxPool2x2>();
  }

 private:
  Tensor argmax_;
  Shape input_shape_;
};

// Collapses all trailing dimensions: [N, ...] -> [N, prod(...)].
class Flatten : public Layer {
 public:
  Flatten() = default;

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Flatten>();
  }

 private:
  Shape input_shape_;
};

class ReLU : public Layer {
 public:
  ReLU() = default;

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void ReleaseBuffers() override { cached_input_ = Tensor(); }
  std::string name() const override { return "ReLU"; }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<ReLU>();
  }

 private:
  Tensor cached_input_;
};

// Residual block over two Dense+ReLU sublayers: y = ReLU(x + F(x)).
// Requires in == out features. Stand-in for the residual connections of the
// paper's ResNet-152 model.
class ResidualDense : public Layer {
 public:
  ResidualDense(int features, int hidden, util::Rng* rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Tensor*> Params() override;
  std::vector<Tensor*> Grads() override;
  void ReleaseBuffers() override;
  std::string name() const override { return "ResidualDense"; }
  std::unique_ptr<Layer> Clone() const override;

 private:
  ResidualDense() = default;

  std::unique_ptr<Dense> fc1_;
  std::unique_ptr<ReLU> relu1_;
  std::unique_ptr<Dense> fc2_;
  Tensor cached_sum_;  // x + F(x), pre-activation of the output ReLU
};

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_LAYERS_H_
