// First-order optimizers. SGD (optionally with momentum) drives FL local
// updating, as in the paper; Adam trains the DDPG actor/critic.

#ifndef FEDMIGR_NN_OPTIMIZER_H_
#define FEDMIGR_NN_OPTIMIZER_H_

#include <vector>

#include "nn/sequential.h"
#include "nn/tensor.h"
#include "util/serial.h"

namespace fedmigr::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  // Applies one update using the model's current gradients, then leaves the
  // gradients untouched (callers ZeroGrads() between mini-batches).
  virtual void Step(Sequential* model) = 0;

  // Full internal state (momentum/moment buffers, step counters) for the
  // run-snapshot subsystem; restoring resumes updates bit-identically.
  // Each optimizer's Visit defines the layout.
  virtual void SaveState(util::ByteWriter* writer) const = 0;
  virtual util::Status LoadState(util::ByteReader* reader) = 0;
};


class Sgd : public Optimizer {
 public:
  explicit Sgd(double learning_rate, double momentum = 0.0,
               double weight_decay = 0.0);

  void Step(Sequential* model) override;
  void SaveState(util::ByteWriter* writer) const override;
  util::Status LoadState(util::ByteReader* reader) override;

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(velocity_);
    return ar.status();
  }
  // True when the velocity is unsized or holds one tensor shaped like each
  // of the model's parameters. Step re-sizes buffers that do not fit;
  // loaders reject them, so a crafted snapshot cannot load as Ok.
  bool FitsModel(const Sequential& model) const;

  void set_learning_rate(double lr) { learning_rate_ = lr; }
  double learning_rate() const { return learning_rate_; }

 private:
  // SNAPSHOT-SKIP(hyperparameters, supplied identically on resume)
  double learning_rate_;
  double momentum_;
  double weight_decay_;  // SNAPSHOT-SKIP(hyperparameter, from config)
  // Velocity buffers, lazily sized to the first model seen. Keyed by
  // parameter position; an optimizer instance serves one model.
  std::vector<Tensor> velocity_;
};

class Adam : public Optimizer {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  void Step(Sequential* model) override;
  void SaveState(util::ByteWriter* writer) const override;
  util::Status LoadState(util::ByteReader* reader) override;

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(t_);
    ar.Io(m_);
    ar.Io(v_);
    ar.Check(t_ >= 0 && m_.size() == v_.size(), "inconsistent Adam state");
    return ar.status();
  }
  // As Sgd::FitsModel, for both moment sets.
  bool FitsModel(const Sequential& model) const;

 private:
  // SNAPSHOT-SKIP(hyperparameters, supplied identically on resume)
  double learning_rate_;
  // SNAPSHOT-SKIP(hyperparameters, supplied identically on resume)
  double beta1_;
  double beta2_;
  double epsilon_;  // SNAPSHOT-SKIP(hyperparameter, from config)
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_OPTIMIZER_H_
