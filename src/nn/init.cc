#include "nn/init.h"

#include <cmath>

namespace fedmigr::nn {

void HeNormal(Tensor* weights, int fan_in, util::Rng* rng) {
  const double stddev = std::sqrt(2.0 / fan_in);
  for (int64_t i = 0; i < weights->size(); ++i) {
    (*weights)[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
}

}  // namespace fedmigr::nn
