// Weight initialization.

#ifndef FEDMIGR_NN_INIT_H_
#define FEDMIGR_NN_INIT_H_

#include "nn/tensor.h"
#include "util/rng.h"

namespace fedmigr::nn {

// He/Kaiming normal: N(0, sqrt(2 / fan_in)). Suits ReLU layers.
void HeNormal(Tensor* weights, int fan_in, util::Rng* rng);

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_INIT_H_
