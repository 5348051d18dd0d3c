#include "nn/sequential.h"

#include <cmath>

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
  Tensor grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->Backward(grad);
  }
  return grad;
}

void Sequential::BackwardParams(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor grad = grad_output;
  for (size_t i = layers_.size() - 1; i > 0; --i) {
    grad = layers_[i]->Backward(grad);
  }
  layers_.front()->BackwardParams(grad);
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

double Sequential::ParamNorm() const {
  double sum = 0.0;
  for (const Tensor* p : Params()) {
    const double norm = p->Norm();
    sum += norm * norm;
  }
  return std::sqrt(sum);
}

double Sequential::ParamDistance(const Sequential& a, const Sequential& b) {
  auto pa = a.Params();
  auto pb = b.Params();
  FEDMIGR_CHECK_EQ(pa.size(), pb.size());
  double sum = 0.0;
  for (size_t i = 0; i < pa.size(); ++i) {
    FEDMIGR_CHECK(pa[i]->SameShape(*pb[i]));
    for (int64_t j = 0; j < pa[i]->size(); ++j) {
      const double diff = (*pa[i])[j] - (*pb[i])[j];
      sum += diff * diff;
    }
  }
  return std::sqrt(sum);
}

}  // namespace fedmigr::nn
