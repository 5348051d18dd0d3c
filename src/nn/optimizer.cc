#include "nn/optimizer.h"

#include <cmath>

#include "util/logging.h"

namespace fedmigr::nn {

namespace {

// One moment tensor shaped like each parameter.
template <class P>
bool MomentsMatch(const std::vector<Tensor>& moments,
                  const std::vector<P*>& params) {
  if (moments.size() != params.size()) return false;
  for (size_t i = 0; i < params.size(); ++i) {
    if (!moments[i].SameShape(*params[i])) return false;
  }
  return true;
}

}  // namespace

Sgd::Sgd(double learning_rate, double momentum, double weight_decay)
    : learning_rate_(learning_rate),
      momentum_(momentum),
      weight_decay_(weight_decay) {}

void Sgd::Step(Sequential* model) {
  auto params = model->Params();
  auto grads = model->Grads();
  FEDMIGR_CHECK_EQ(params.size(), grads.size());
  if (momentum_ != 0.0 && !MomentsMatch(velocity_, params)) {
    velocity_.clear();
    for (Tensor* p : params) velocity_.emplace_back(p->shape());
  }
  const float lr = static_cast<float>(learning_rate_);
  const float mu = static_cast<float>(momentum_);
  const float wd = static_cast<float>(weight_decay_);
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& p = *params[i];
    const Tensor& g = *grads[i];
    FEDMIGR_CHECK(!g.empty()) << "Step without a Backward since ReleaseBuffers";
    FEDMIGR_CHECK(p.SameShape(g));
    if (momentum_ != 0.0) {
      Tensor& v = velocity_[i];
      for (int64_t j = 0; j < p.size(); ++j) {
        const float grad = g[j] + wd * p[j];
        v[j] = mu * v[j] + grad;
        p[j] -= lr * v[j];
      }
    } else {
      for (int64_t j = 0; j < p.size(); ++j) {
        p[j] -= lr * (g[j] + wd * p[j]);
      }
    }
  }
}

bool Sgd::FitsModel(const Sequential& model) const {
  return velocity_.empty() || MomentsMatch(velocity_, model.Params());
}

void Sgd::SaveState(util::ByteWriter* writer) const {
  util::Save(*this, writer);
}

util::Status Sgd::LoadState(util::ByteReader* reader) {
  return util::Load(reader, this);
}

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {}

void Adam::Step(Sequential* model) {
  auto params = model->Params();
  auto grads = model->Grads();
  FEDMIGR_CHECK_EQ(params.size(), grads.size());
  if (!MomentsMatch(m_, params) || !MomentsMatch(v_, params)) {
    m_.clear();
    v_.clear();
    for (Tensor* p : params) {
      m_.emplace_back(p->shape());
      v_.emplace_back(p->shape());
    }
  }
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const float step = static_cast<float>(learning_rate_ / bias1);
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& p = *params[i];
    const Tensor& g = *grads[i];
    FEDMIGR_CHECK(!g.empty()) << "Step without a Backward since ReleaseBuffers";
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (int64_t j = 0; j < p.size(); ++j) {
      m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * g[j]);
      v[j] = static_cast<float>(beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j]);
      const double vhat = v[j] / bias2;
      p[j] -= step * m[j] / static_cast<float>(std::sqrt(vhat) + epsilon_);
    }
  }
}

bool Adam::FitsModel(const Sequential& model) const {
  return (m_.empty() || MomentsMatch(m_, model.Params())) &&
         (v_.empty() || MomentsMatch(v_, model.Params()));
}

void Adam::SaveState(util::ByteWriter* writer) const {
  util::Save(*this, writer);
}

util::Status Adam::LoadState(util::ByteReader* reader) {
  return util::Load(reader, this);
}

}  // namespace fedmigr::nn
