#include "nn/layers.h"

#include <cmath>

#include "nn/init.h"
#include "nn/ops.h"
#include "util/logging.h"

namespace fedmigr::nn {

namespace {

// The elementwise ReLU loops are selects over raw pointers with
// unconditional loads: GCC vectorizes them in the baseline x86-64 build,
// where an `if` on the sign of random activations stays a mispredicting
// branch. `x < 0 ? 0 : x` keeps -0.0 and NaN (neither is < 0), exactly like
// the branch it replaces; std::max/fmaxf would not (fmaxf(NaN, 0) is 0).
void ReluInPlace(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    x[i] = v < 0.0f ? 0.0f : v;
  }
}

// grad = 0 wherever the forward input was <= 0 (-0.0 included); NaN and
// +inf inputs pass the gradient.
void ReluMaskInPlace(const float* input, float* grad, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float g = grad[i];
    grad[i] = input[i] <= 0.0f ? 0.0f : g;
  }
}

}  // namespace

// ---------------------------------------------------------------- Dense --

Dense::Dense(int in_features, int out_features, util::Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      weights_({out_features, in_features}),
      bias_({out_features}),
      grad_weights_({out_features, in_features}),
      grad_bias_({out_features}) {
  FEDMIGR_CHECK_GT(in_features, 0);
  FEDMIGR_CHECK_GT(out_features, 0);
  HeNormal(&weights_, in_features, rng);
}

Tensor Dense::Forward(const Tensor& input, bool /*training*/) {
  FEDMIGR_CHECK_EQ(input.ndim(), 2);
  FEDMIGR_CHECK_EQ(input.dim(1), in_features_);
  cached_input_ = input;
  Tensor output = MatMulTransB(input, weights_);  // [N, out]
  const int batch = output.dim(0);
  for (int n = 0; n < batch; ++n) {
    for (int o = 0; o < out_features_; ++o) output.At(n, o) += bias_[o];
  }
  return output;
}

Tensor Dense::Backward(const Tensor& grad_output) {
  Dense::BackwardParams(grad_output);
  // dX = dY W ([N, out] * [out, in]).
  return MatMul(grad_output, weights_);
}

void Dense::BackwardParams(const Tensor& grad_output) {
  FEDMIGR_CHECK_EQ(grad_output.ndim(), 2);
  FEDMIGR_CHECK_EQ(grad_output.dim(1), out_features_);
  if (grad_weights_.empty()) {  // released: re-create zeroed
    grad_weights_ = Tensor(weights_.shape());
    grad_bias_ = Tensor(bias_.shape());
  }
  // dW = dY^T X  ([out, N] * [N, in]).
  grad_weights_.Add(MatMulTransA(grad_output, cached_input_));
  const int batch = grad_output.dim(0);
  for (int n = 0; n < batch; ++n) {
    for (int o = 0; o < out_features_; ++o) {
      grad_bias_[o] += grad_output.At(n, o);
    }
  }
}

void Dense::ReleaseBuffers() {
  grad_weights_ = Tensor();
  grad_bias_ = Tensor();
  cached_input_ = Tensor();
}

std::unique_ptr<Layer> Dense::Clone() const {
  auto copy = std::unique_ptr<Dense>(new Dense());
  copy->in_features_ = in_features_;
  copy->out_features_ = out_features_;
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->grad_weights_ = Tensor(weights_.shape());
  copy->grad_bias_ = Tensor(bias_.shape());
  return copy;
}

// --------------------------------------------------------------- Conv2D --

Conv2D::Conv2D(int in_channels, int out_channels, int kernel_size, int pad,
               util::Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      pad_(pad),
      kernel_({out_channels, in_channels, kernel_size, kernel_size}),
      bias_({out_channels}),
      grad_kernel_(kernel_.shape()),
      grad_bias_(bias_.shape()) {
  FEDMIGR_CHECK_GT(kernel_size, 0);
  HeNormal(&kernel_, in_channels * kernel_size * kernel_size, rng);
}

Tensor Conv2D::Forward(const Tensor& input, bool training) {
  FEDMIGR_CHECK_EQ(input.dim(1), in_channels_);
  cached_input_ = input;
  ColumnWorkspace& workspace = ColumnWorkspace::ThreadLocal();
  if (!training) {
    workspace.Release(&columns_);
    return Conv2dForward(input, kernel_, bias_, pad_);
  }
  float* columns = workspace.Acquire(
      Conv2dColumnFloats(input, kernel_, pad_), &columns_);
  return Conv2dForward(input, kernel_, bias_, pad_, columns);
}

Tensor Conv2D::Backward(const Tensor& grad_output) {
  Tensor grad_input;
  AccumulateBackward(grad_output, &grad_input);
  return grad_input;
}

void Conv2D::BackwardParams(const Tensor& grad_output) {
  AccumulateBackward(grad_output, nullptr);
}

void Conv2D::AccumulateBackward(const Tensor& grad_output,
                                Tensor* grad_input) {
  ColumnWorkspace& workspace = ColumnWorkspace::ThreadLocal();
  Tensor grad_kernel, grad_bias;
  Conv2dBackward(cached_input_, kernel_, pad_, grad_output, grad_input,
                 &grad_kernel, &grad_bias, workspace.Find(columns_));
  workspace.Release(&columns_);
  if (grad_kernel_.empty()) {  // released: re-create zeroed
    grad_kernel_ = Tensor(kernel_.shape());
    grad_bias_ = Tensor(bias_.shape());
  }
  grad_kernel_.Add(grad_kernel);
  grad_bias_.Add(grad_bias);
}

void Conv2D::ReleaseBuffers() {
  grad_kernel_ = Tensor();
  grad_bias_ = Tensor();
  cached_input_ = Tensor();
  ColumnWorkspace::ThreadLocal().Release(&columns_);
}

std::unique_ptr<Layer> Conv2D::Clone() const {
  auto copy = std::unique_ptr<Conv2D>(new Conv2D());
  copy->in_channels_ = in_channels_;
  copy->out_channels_ = out_channels_;
  copy->kernel_size_ = kernel_size_;
  copy->pad_ = pad_;
  copy->kernel_ = kernel_;
  copy->bias_ = bias_;
  copy->grad_kernel_ = Tensor(kernel_.shape());
  copy->grad_bias_ = Tensor(bias_.shape());
  return copy;
}

// ----------------------------------------------------------- MaxPool2x2 --

Tensor MaxPool2x2::Forward(const Tensor& input, bool /*training*/) {
  input_shape_ = input.shape();
  return MaxPool2x2Forward(input, &argmax_);
}

Tensor MaxPool2x2::Backward(const Tensor& grad_output) {
  return MaxPool2x2Backward(grad_output, argmax_, input_shape_);
}

// -------------------------------------------------------------- Flatten --

Tensor Flatten::Forward(const Tensor& input, bool /*training*/) {
  input_shape_ = input.shape();
  const int batch = input.dim(0);
  const int features = static_cast<int>(input.size() / batch);
  Tensor output = input;
  output.Reshape({batch, features});
  return output;
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  Tensor grad_input = grad_output;
  grad_input.Reshape(input_shape_);
  return grad_input;
}

// ----------------------------------------------------------------- ReLU --

Tensor ReLU::Forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor output = input;
  ReluInPlace(output.data(), output.size());
  return output;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  FEDMIGR_CHECK(grad_output.SameShape(cached_input_));
  Tensor grad_input = grad_output;
  ReluMaskInPlace(cached_input_.data(), grad_input.data(), grad_input.size());
  return grad_input;
}

// ----------------------------------------------------------------- Tanh --

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  Tensor output = input;
  for (int64_t i = 0; i < output.size(); ++i) {
    output[i] = std::tanh(output[i]);
  }
  cached_output_ = output;
  return output;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.size(); ++i) {
    const float y = cached_output_[i];
    grad_input[i] *= (1.0f - y * y);
  }
  return grad_input;
}

// -------------------------------------------------------------- Sigmoid --

Tensor Sigmoid::Forward(const Tensor& input, bool /*training*/) {
  Tensor output = input;
  for (int64_t i = 0; i < output.size(); ++i) {
    output[i] = 1.0f / (1.0f + std::exp(-output[i]));
  }
  cached_output_ = output;
  return output;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.size(); ++i) {
    const float y = cached_output_[i];
    grad_input[i] *= y * (1.0f - y);
  }
  return grad_input;
}

// -------------------------------------------------------------- Softmax --

Tensor Softmax::Forward(const Tensor& input, bool /*training*/) {
  FEDMIGR_CHECK_EQ(input.ndim(), 2);
  Tensor output = input;
  const int batch = input.dim(0), classes = input.dim(1);
  for (int n = 0; n < batch; ++n) {
    float row_max = output.At(n, 0);
    for (int c = 1; c < classes; ++c) {
      row_max = std::max(row_max, output.At(n, c));
    }
    float sum = 0.0f;
    for (int c = 0; c < classes; ++c) {
      const float e = std::exp(output.At(n, c) - row_max);
      output.At(n, c) = e;
      sum += e;
    }
    for (int c = 0; c < classes; ++c) output.At(n, c) /= sum;
  }
  cached_output_ = output;
  return output;
}

Tensor Softmax::Backward(const Tensor& grad_output) {
  // dL/dx_i = y_i * (dL/dy_i - sum_j dL/dy_j * y_j), per row.
  const int batch = grad_output.dim(0), classes = grad_output.dim(1);
  Tensor grad_input({batch, classes});
  for (int n = 0; n < batch; ++n) {
    float dot = 0.0f;
    for (int c = 0; c < classes; ++c) {
      dot += grad_output.At(n, c) * cached_output_.At(n, c);
    }
    for (int c = 0; c < classes; ++c) {
      grad_input.At(n, c) =
          cached_output_.At(n, c) * (grad_output.At(n, c) - dot);
    }
  }
  return grad_input;
}

// -------------------------------------------------------- ResidualDense --

ResidualDense::ResidualDense(int features, int hidden, util::Rng* rng)
    : fc1_(std::make_unique<Dense>(features, hidden, rng)),
      relu1_(std::make_unique<ReLU>()),
      fc2_(std::make_unique<Dense>(hidden, features, rng)) {}

Tensor ResidualDense::Forward(const Tensor& input, bool training) {
  Tensor residual = fc2_->Forward(
      relu1_->Forward(fc1_->Forward(input, training), training), training);
  cached_sum_ = Add(input, residual);
  Tensor output = cached_sum_;
  ReluInPlace(output.data(), output.size());
  return output;
}

Tensor ResidualDense::Backward(const Tensor& grad_output) {
  Tensor grad_sum = grad_output;
  ReluMaskInPlace(cached_sum_.data(), grad_sum.data(), grad_sum.size());
  Tensor grad_branch =
      fc1_->Backward(relu1_->Backward(fc2_->Backward(grad_sum)));
  grad_branch.Add(grad_sum);  // skip connection
  return grad_branch;
}

std::vector<Tensor*> ResidualDense::Params() {
  std::vector<Tensor*> params = fc1_->Params();
  for (Tensor* p : fc2_->Params()) params.push_back(p);
  return params;
}

std::vector<Tensor*> ResidualDense::Grads() {
  std::vector<Tensor*> grads = fc1_->Grads();
  for (Tensor* g : fc2_->Grads()) grads.push_back(g);
  return grads;
}

void ResidualDense::ReleaseBuffers() {
  fc1_->ReleaseBuffers();
  relu1_->ReleaseBuffers();
  fc2_->ReleaseBuffers();
  cached_sum_ = Tensor();
}

std::unique_ptr<Layer> ResidualDense::Clone() const {
  auto copy = std::unique_ptr<ResidualDense>(new ResidualDense());
  copy->fc1_.reset(static_cast<Dense*>(fc1_->Clone().release()));
  copy->relu1_ = std::make_unique<ReLU>();
  copy->fc2_.reset(static_cast<Dense*>(fc2_->Clone().release()));
  return copy;
}

}  // namespace fedmigr::nn
