// Abstract layer interface for the sequential networks used by all FL
// schemes and the DRL agent.
//
// Layers own their parameters and gradient buffers; a forward pass caches
// whatever the matching backward pass needs. Training is single-threaded per
// model instance (each simulated client owns its model), so no locking.

#ifndef FEDMIGR_NN_LAYER_H_
#define FEDMIGR_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace fedmigr::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  // Computes the layer output. `training` toggles train-only behaviour
  // (e.g., dropout); inference passes false.
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  // Computes the gradient w.r.t. the layer input given the gradient w.r.t.
  // the output of the most recent Forward(). Accumulates parameter
  // gradients into the buffers returned by Grads().
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  // Backward for a caller that drops the input gradient: accumulates the
  // same parameter gradients, bit for bit, and may skip computing the
  // gradient w.r.t. the input. The default runs Backward and discards its
  // result; Conv2D and Dense override it to skip their input-gradient GEMM.
  // A decorator that overrides only Backward (perfbench's per-layer timer)
  // therefore still computes the input gradient here.
  virtual void BackwardParams(const Tensor& grad_output) {
    (void)Backward(grad_output);
  }

  // Trainable parameters / matching gradient buffers. Empty for stateless
  // layers. Order is stable and identical between the two lists.
  virtual std::vector<Tensor*> Params() { return {}; }
  virtual std::vector<Tensor*> Grads() { return {}; }

  // Frees the forward caches and the gradient buffers; the parameters stay.
  // For a model that will not train again soon (a client that left its
  // cohort, a target network between train steps). Afterwards Grads() holds
  // empty tensors until the next Backward re-creates them zeroed, so
  // ZeroGrads -> Forward -> Backward -> optimizer Step gives the same bytes
  // as without the release. A Backward needs a Forward after the release.
  // Releasing twice is a no-op; layers without caches or gradients keep
  // this default.
  virtual void ReleaseBuffers() {}

  // Human-readable layer tag for debugging and serialization checks.
  virtual std::string name() const = 0;

  // Deep copy (parameters included, caches excluded). Used when a model is
  // distributed to or migrated between simulated clients.
  virtual std::unique_ptr<Layer> Clone() const = 0;
};

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_LAYER_H_
