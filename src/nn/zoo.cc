#include "nn/zoo.h"

#include <memory>

#include "nn/layers.h"
#include "util/logging.h"

namespace fedmigr::nn {

Sequential MakeC10Net(util::Rng* rng) {
  // conv5x5(3->8) - pool - conv5x5(8->16) - pool - fc(64->64) - fc(64->10).
  // Mirrors the paper's C10-CNN (two 5x5 convs each followed by 2x2 pooling,
  // one hidden FC, softmax head), scaled to 8x8 synthetic images.
  Sequential model;
  model.Add(std::make_unique<Conv2D>(kImageChannels, 8, 5, 2, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2x2>())
      .Add(std::make_unique<Conv2D>(8, 16, 5, 2, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2x2>())
      .Add(std::make_unique<Flatten>())
      .Add(std::make_unique<Dense>(16 * 2 * 2, 64, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<Dense>(64, 10, rng));
  return model;
}

Sequential MakeC100Net(util::Rng* rng) {
  // Same trunk as C10Net but with two hidden FC layers and a 100-way head,
  // matching the paper's C100-CNN variant.
  Sequential model;
  model.Add(std::make_unique<Conv2D>(kImageChannels, 8, 5, 2, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2x2>())
      .Add(std::make_unique<Conv2D>(8, 16, 5, 2, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2x2>())
      .Add(std::make_unique<Flatten>())
      .Add(std::make_unique<Dense>(16 * 2 * 2, 96, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<Dense>(96, 96, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<Dense>(96, 100, rng));
  return model;
}

Sequential MakeResMini(util::Rng* rng, int num_classes) {
  // Dense stem + three residual blocks. Parameter count exceeds both CNNs,
  // preserving ResNet-152's "largest model / largest transfer" role.
  Sequential model;
  model.Add(std::make_unique<Dense>(kResFeatureDim, 160, rng))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<ResidualDense>(160, 160, rng))
      .Add(std::make_unique<ResidualDense>(160, 160, rng))
      .Add(std::make_unique<ResidualDense>(160, 160, rng))
      .Add(std::make_unique<Dense>(160, num_classes, rng));
  return model;
}

Sequential MakeMlp(const std::vector<int>& dims, util::Rng* rng) {
  FEDMIGR_CHECK_GE(dims.size(), 2u);
  Sequential model;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    model.Add(std::make_unique<Dense>(dims[i], dims[i + 1], rng));
    if (i + 2 < dims.size()) model.Add(std::make_unique<ReLU>());
  }
  return model;
}

Sequential MakeModelByName(const std::string& name, util::Rng* rng) {
  if (name == "c10") return MakeC10Net(rng);
  if (name == "c100") return MakeC100Net(rng);
  if (name == "resmini") return MakeResMini(rng);
  FEDMIGR_CHECK(false) << "unknown model name: " << name;
  return Sequential();  // unreachable
}

}  // namespace fedmigr::nn
