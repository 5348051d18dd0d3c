// The intra-op determinism contract, asserted at the trainer level: a full
// FL run — client updates on the inter-client pool, evaluation on the main
// thread through the intra-op pool — must produce byte-identical serialized
// state at every FEDMIGR_INTRA_OP_THREADS setting in {1, 2, 8} and at both
// inter-client pool widths. This is the property the kill-and-resume
// harness and every FedMigr-vs-FedAvg comparison rest on; run under the
// `tsan` preset it doubles as the race gate for the nested-pool hot path.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/schemes.h"
#include "fl/trainer.h"
#include "net/sim_topologies.h"
#include "nn/gemm.h"
#include "nn/zoo.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::fl {
namespace {

struct TinyWorkload {
  TinyWorkload() {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 20;
    spec.test_per_class = 5;
    data = data::GenerateSynthetic(spec);
    topology = net::MakeC10SimTopology();
    devices = net::MakeUniformFleet(10);
    util::Rng rng(3);
    partition = data::PartitionByClassShards(data.train, 10, 1, &rng);
  }

  Trainer MakeTrainer(SchemeSetup setup) {
    return Trainer(setup.config, &data.train, partition, &data.test,
                   topology, devices,
                   [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                   std::move(setup.policy));
  }

  data::TrainTest data;
  data::Partition partition;
  net::Topology topology;
  std::vector<net::DeviceProfile> devices;
};

SchemeSetup SmallScheme(int num_threads) {
  SchemeSetup setup = MakeRandMigr(/*agg_period=*/2);
  setup.config.max_epochs = 4;
  setup.config.eval_every = 2;
  setup.config.seed = 42;
  setup.config.num_threads = num_threads;
  return setup;
}

std::vector<uint8_t> RunAndSerialize(int inter_client_threads) {
  TinyWorkload w;
  Trainer trainer = w.MakeTrainer(SmallScheme(inter_client_threads));
  const RunResult result = trainer.Run();
  EXPECT_FALSE(result.interrupted);
  util::ByteWriter writer;
  trainer.SaveState(&writer);
  return writer.TakeBytes();
}

class IntraOpThreadsGuard {
 public:
  IntraOpThreadsGuard() : saved_(nn::GetIntraOpThreads()) {}
  ~IntraOpThreadsGuard() { nn::SetIntraOpThreads(saved_); }

 private:
  int saved_;
};

TEST(TrainerIntraOpDeterminismTest, StateBytesIdenticalAcrossThreadCounts) {
  IntraOpThreadsGuard guard;

  nn::SetIntraOpThreads(1);
  const std::vector<uint8_t> reference = RunAndSerialize(2);
  ASSERT_FALSE(reference.empty());

  for (int intra_op : {2, 8}) {
    nn::SetIntraOpThreads(intra_op);
    const std::vector<uint8_t> got = RunAndSerialize(2);
    ASSERT_EQ(got.size(), reference.size()) << "intra_op=" << intra_op;
    EXPECT_EQ(got, reference) << "intra_op=" << intra_op;
  }
}

TEST(TrainerIntraOpDeterminismTest,
     StateBytesIdenticalAcrossInterClientPoolWidths) {
  IntraOpThreadsGuard guard;
  nn::SetIntraOpThreads(2);

  const std::vector<uint8_t> one = RunAndSerialize(1);
  const std::vector<uint8_t> four = RunAndSerialize(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace fedmigr::fl
