// Frozen-behaviour pins for the trainer's simulated network and clock.
//
// Each case runs a small workload and renders what the simulation charged:
// per-epoch cumulative traffic and time (as IEEE-754 bit patterns), the
// migration count and aggregation flag of every epoch, the directional
// traffic totals, and the fault, robustness and chaos counters. The
// rendering is compared line by line with one recorded from a known-good
// build. None of these values depends on model float values, so the pins
// hold under every GEMM kernel (run with FEDMIGR_GEMM_KERNEL=portable too).
// A refactor of the participation paths must leave every line unchanged; a
// deliberate behaviour change re-records the affected rendering and states
// why.

#include <string>

#include <gtest/gtest.h>

#include "golden_fleets.h"
#include "fl/trainer.h"

namespace fedmigr::fl {
namespace {

TEST(TrainerGoldenTest, Fig3CrossLanFullParticipation) {
  const Fig3Fleet fleet;
  const std::string expected =
      "e1 gb=3f36a22de7c4cacb s=3fc67fb91dc35f65 m=10 a=0\n"
      "e2 gb=3f46a22de7c4cacb s=3fd67fb91dc35f64 m=10 a=0\n"
      "e3 gb=3f50f9a26dd39818 s=3fe0dfcad652878b m=10 a=0\n"
      "e4 gb=3f56a22de7c4cacb s=3fe67fb91dc35f64 m=10 a=0\n"
      "e5 gb=3f60f9a26dd39818 s=3ff572e19eebe8f1 m=0 a=1\n"
      "e6 gb=3f63857acb19bbb5 s=3ff842d8c2a454de m=9 a=0\n"
      "e7 gb=3f6659c08812550f s=3ffb12cfe65cc0cb m=10 a=0\n"
      "e8 gb=3f692e06450aee68 s=3ffde2c70a152cb8 m=10 a=0\n"
      "e9 gb=3f6c024c020387c1 s=4000595f16e6cc52 m=10 a=0\n"
      "e10 gb=3f70d56bbdfa5d3a s=400572e19eebe8f2 m=0 a=1\n"
      "e11 gb=3f723f8e9c76a9e7 s=4006dadd30c81ee8 m=10 a=0\n"
      "e12 gb=3f7513d4596f4340 s=400bf45fb8cd3b88 m=0 a=1\n"
      "up=3f50f9a26dd39818 down=3f50f9a26dd39818 c2c=3f692e06450aee68\n"
      "faults 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
      "robust 30 0 0 0 0 0 0 0 0\n"
      "chaos 89 89 0 0 0 0 0 0 0\n";
  EXPECT_EQ(Render(fleet.Run(Fig3Fleet::MakeConfig())), expected);
}

TEST(TrainerGoldenTest, Fig3PartialParticipationUnderLinkFaults) {
  const Fig3Fleet fleet;
  const std::string expected =
      "e1 gb=3f021b57ec9d6f09 s=3fc67fb91dc35f65 m=1 a=0\n"
      "e2 gb=3f021b57ec9d6f09 s=3fd59070252c0972 m=0 a=0\n"
      "e3 gb=3f021b57ec9d6f09 s=3fdc31f39812b0dc m=0 a=0\n"
      "e4 gb=3f1b2903e2ec268d s=3ff2184647e2eda0 m=1 a=0\n"
      "e5 gb=3f4fafd9de13824f s=4022c6606c5161f2 m=0 a=1\n"
      "e6 gb=3f533d0d6b6745f9 s=40262f53e051e4cf m=3 a=0\n"
      "e7 gb=3f545ec2ea311cea s=402790cd0c8dacfc m=1 a=0\n"
      "e8 gb=3f561153285fdf52 s=4028f24638c97529 m=2 a=0\n"
      "e9 gb=3f561153285fdf52 s=402944cad57bc7f7 m=0 a=0\n"
      "e10 gb=3f6263c54c4fe4c5 s=4034ea29efbd929d m=0 a=1\n"
      "e11 gb=3f633d0d6b6745f9 s=40359095f2452c5a m=2 a=0\n"
      "e12 gb=3f697673a4bd6424 s=403bb5a71659de98 m=0 a=1\n"
      "up=3f4b2903e2ec268d down=3f5bb9dea2511205 c2c=3f433d0d6b6745f9\n"
      "faults 90 41 38 0 3 0 3 3 0 14 10 0 0\n"
      "robust 11 0 0 0 0 0 0 0 0\n"
      "chaos 10 10 0 0 3 0 0 0 0\n";
  EXPECT_EQ(Render(fleet.Run(Fig3Fleet::PartialUnderFaultsConfig())), expected);
}

TEST(TrainerGoldenTest, ChaosCohortOfEight) {
  const ChaosFleet fleet;
  const std::string expected =
      "e1 gb=3f345ec2ea311cea s=3fc3df9e60a8b744 m=4 a=0\n"
      "e2 gb=3f3b2903e2ec268d s=3fd12ba9d1f6017a m=0 a=1\n"
      "e3 gb=3f48e598e55878ac s=3fdca1a5d7957dac m=4 a=0\n"
      "e4 gb=3f4fafd9de13824f s=3fe3942c724ed1f6 m=0 a=1\n"
      "e5 gb=3f57c3e3668ea1bb s=3fea1240dfc42056 m=7 a=0\n"
      "e6 gb=3f57c3e3668ea1bb s=3fed00848a3ddc04 m=0 a=1\n"
      "up=3f345ec2ea311cea down=3f445ec2ea311cea c2c=3f40f9a26dd39818\n"
      "faults 42 0 0 0 0 0 0 0 0 0 0 2 7\n"
      "robust 9 0 0 0 0 0 0 0 0\n"
      "chaos 15 15 0 0 2 1 0 6 4\n";
  EXPECT_EQ(Render(fleet.Run(ChaosFleet::CohortOfEightConfig())), expected);
}

}  // namespace
}  // namespace fedmigr::fl
