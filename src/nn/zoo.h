// Model zoo: the three classifier architectures of the paper's evaluation
// plus a generic MLP builder used by the DRL agent.
//
// Architectures mirror Section IV-B of the paper, scaled to the synthetic
// image sizes of this reproduction (see DESIGN.md, substitution table):
//   C10Net   — conv(5x5)-pool-conv(5x5)-pool-fc-softmax head, 10 classes
//              (the paper's C10-CNN from McMahan et al.).
//   C100Net  — same trunk with two 512-unit FC layers and a 100-way head
//              (the paper's C100-CNN).
//   ResMini  — dense stem + residual blocks, 100-way head; a stand-in for
//              ResNet-152 that preserves the "largest model" role.

#ifndef FEDMIGR_NN_ZOO_H_
#define FEDMIGR_NN_ZOO_H_

#include <string>

#include "nn/sequential.h"
#include "util/rng.h"

namespace fedmigr::nn {

// Input geometry the synthetic datasets use for the two CNNs.
inline constexpr int kImageChannels = 3;
inline constexpr int kImageSize = 8;  // 8x8 synthetic "images"

// Flat feature dimension consumed by ResMini.
inline constexpr int kResFeatureDim = 64;

Sequential MakeC10Net(util::Rng* rng);
Sequential MakeC100Net(util::Rng* rng);
Sequential MakeResMini(util::Rng* rng, int num_classes = 100);

// MLP with ReLU hidden layers and a linear output: dims = {in, h1, ..., out}.
// The DRL actor and critic both use it; the actor's softmax over candidates
// lives in the agent (rl/agent.h), which masks candidates first.
Sequential MakeMlp(const std::vector<int>& dims, util::Rng* rng);

// Builds a model by zoo name: "c10" | "c100" | "resmini". CHECK-fails on an
// unknown name.
Sequential MakeModelByName(const std::string& name, util::Rng* rng);

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_ZOO_H_
