// Abstract layer interface for the sequential networks used by all FL
// schemes and the DRL agent.
//
// Layers own their parameters and gradient buffers; a forward pass caches
// whatever the matching backward pass needs. Training is single-threaded per
// model instance (each simulated client owns its model), so no locking.

#ifndef FEDMIGR_NN_LAYER_H_
#define FEDMIGR_NN_LAYER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace fedmigr::nn {

// A batch cut into row segments, given by their ends: segment s holds rows
// [ends[s-1], ends[s]) (ends[-1] being 0), and the last end is the row
// count. A whole batch is the one segment {rows}.
using RowSegments = std::span<const int>;

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
  // result; Conv2D overrides it to skip its input-gradient GEMM (Dense
  // skips it in BackwardSegments). A decorator that overrides only
  // Backward (perfbench's per-layer timer) therefore still computes the
  // input gradient here.
  virtual void BackwardParams(const Tensor& grad_output) {
    (void)Backward(grad_output);
  }

  // Backward over a batch cut into row segments: each parameter gradient
  // gets the bytes that one Backward per segment, over that segment's rows
  // and run in segment order, gives; the input gradient, filled unless
  // grad_input is null, is Backward's; a null grad_input is BackwardParams.
  // Sequential's backwards call this on every layer. Dense overrides it
  // (one segmented weight-gradient GEMM). The default runs Backward or
  // BackwardParams on the whole batch, which honours any segments only for
  // a layer without parameters (whose backward is per row); a layer with
  // parameters FEDMIGR_CHECK-fails on more than one segment rather than
  // merge them.
  virtual void BackwardSegments(const Tensor& grad_output, RowSegments segments,
                                Tensor* grad_input);

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
