#include "nn/sequential.h"

#include <utility>

#include "util/logging.h"

namespace fedmigr::nn {

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->Clone());
  return *this;
}

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  FEDMIGR_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::Forward(const Tensor& input, bool training) {
  Tensor activation = input;
  for (auto& layer : layers_) {
    activation = layer->Forward(activation, training);
  }
  return activation;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  const int whole[] = {grad_output.dim(0)};
  return Backward(grad_output, whole);
}

void Sequential::BackwardParams(const Tensor& grad_output) {
  const int whole[] = {grad_output.dim(0)};
  BackwardParams(grad_output, whole);
}

Tensor Sequential::Backward(const Tensor& grad_output, RowSegments segments) {
  Tensor grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    Tensor grad_input;
    (*it)->BackwardSegments(grad, segments, &grad_input);
    grad = std::move(grad_input);
  }
  return grad;
}

void Sequential::BackwardParams(const Tensor& grad_output,
                                RowSegments segments) {
  if (layers_.empty()) return;
  Tensor grad = grad_output;
  for (size_t i = layers_.size() - 1; i > 0; --i) {
    Tensor grad_input;
    layers_[i]->BackwardSegments(grad, segments, &grad_input);
    grad = std::move(grad_input);
  }
  layers_.front()->BackwardSegments(grad, segments, nullptr);
}

std::vector<Tensor*> Sequential::Params() {
  std::vector<Tensor*> params;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::vector<const Tensor*> Sequential::Params() const {
  std::vector<const Tensor*> params;
  for (const auto& layer : layers_) {
    for (Tensor* p : const_cast<Layer&>(*layer).Params()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<Tensor*> Sequential::Grads() {
  std::vector<Tensor*> grads;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->Grads()) grads.push_back(g);
  }
  return grads;
}

std::vector<const Tensor*> Sequential::Grads() const {
  std::vector<const Tensor*> grads;
  for (const auto& layer : layers_) {
    for (Tensor* g : const_cast<Layer&>(*layer).Grads()) grads.push_back(g);
  }
  return grads;
}

void Sequential::ZeroGrads() {
  for (Tensor* g : Grads()) g->Zero();
}

void Sequential::ReleaseBuffers() {
  for (auto& layer : layers_) layer->ReleaseBuffers();
}

int64_t Sequential::NumParams() const {
  int64_t n = 0;
  for (const Tensor* p : Params()) n += p->size();
  return n;
}

void Sequential::CopyParamsFrom(const Sequential& other) {
  auto dst = Params();
  auto src = other.Params();
  FEDMIGR_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    FEDMIGR_CHECK(dst[i]->SameShape(*src[i]));
    *dst[i] = *src[i];
  }
}

void Sequential::LerpParamsFrom(const Sequential& other, float alpha) {
  auto dst = Params();
  auto src = other.Params();
  FEDMIGR_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    dst[i]->Scale(1.0f - alpha);
    dst[i]->Axpy(alpha, *src[i]);
  }
}

}  // namespace fedmigr::nn
