// Sequential model container: the trainable unit that FL clients hold,
// migrate and the server aggregates.

#ifndef FEDMIGR_NN_SEQUENTIAL_H_
#define FEDMIGR_NN_SEQUENTIAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.h"
#include "nn/tensor.h"

namespace fedmigr::nn {

class Sequential {
 public:
  Sequential() = default;

  Sequential(const Sequential& other) { *this = other; }
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  // Appends a layer; returns *this for fluent construction.
  Sequential& Add(std::unique_ptr<Layer> layer);

  Tensor Forward(const Tensor& input, bool training = true);
  // Backpropagates through all layers; returns gradient w.r.t. the input.
  Tensor Backward(const Tensor& grad_output);
  // Backward for callers that drop the input gradient (local training,
  // the DDPG actor): runs Backward on layers n-1..1 and
  // Layer::BackwardParams on layer 0, so the first layer may skip its
  // input-gradient work. Grads() end up byte-identical to Backward's.
  // A layer-0 decorator that forwards only Backward (perfbench's timer)
  // keeps computing that gradient, so traced runs do the same GEMMs as
  // Backward.
  void BackwardParams(const Tensor& grad_output);
  // Backward and BackwardParams over a batch cut into row segments
  // (layer.h): each layer runs Layer::BackwardSegments, so every parameter
  // gradient gets the bytes of one backward per segment, run in segment
  // order, and the input gradient is the whole batch's. The plain forms
  // above are the one-segment case.
  Tensor Backward(const Tensor& grad_output, RowSegments segments);
  void BackwardParams(const Tensor& grad_output, RowSegments segments);

  // Flattened parameter/gradient views across layers (stable order).
  std::vector<Tensor*> Params();
  std::vector<Tensor*> Grads();
  std::vector<const Tensor*> Params() const;
  std::vector<const Tensor*> Grads() const;

  void ZeroGrads();
  // Layer::ReleaseBuffers on every layer.
  void ReleaseBuffers();

  // Total number of scalar parameters.
  int64_t NumParams() const;
  // Serialized size in bytes (what the network simulator charges per model
  // transfer): 4 bytes per parameter.
  int64_t ByteSize() const { return NumParams() * 4; }

  // Overwrites this model's parameters with `other`'s. Architectures must
  // match (same parameter tensor shapes).
  void CopyParamsFrom(const Sequential& other);

  // this_params = this_params * (1 - alpha) + other_params * alpha.
  void LerpParamsFrom(const Sequential& other, float alpha);

  // L2 norm over the whole parameter vector.
  double ParamNorm() const;
  // L2 distance between two models' parameter vectors.
  static double ParamDistance(const Sequential& a, const Sequential& b);

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_[static_cast<size_t>(i)]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_SEQUENTIAL_H_
