#include "fl/client.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fl/model_store.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/tensor_helpers.h"
#include "nn/zoo.h"
#include "util/rng.h"
#include "util/serial.h"

namespace fedmigr::fl {
namespace {

struct Fixture {
  Fixture() : data(data::GenerateSynthetic(data::C10Spec())) {}
  data::TrainTest data;
};

std::vector<int> FirstN(int n) {
  std::vector<int> idx(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
  return idx;
}

TEST(ClientTest, BasicAccessors) {
  Fixture f;
  Client client(3, &f.data.train, FirstN(50), 0.05, 0.0, 1);
  EXPECT_EQ(client.id(), 3);
  EXPECT_EQ(client.num_samples(), 50);
  EXPECT_EQ(client.label_distribution().size(), 10u);
}

TEST(ClientTest, LabelDistributionSumsToOne) {
  Fixture f;
  Client client(0, &f.data.train, FirstN(40), 0.05, 0.0, 2);
  double sum = 0.0;
  for (double p : client.label_distribution()) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ClientTest, LocalUpdateReducesLoss) {
  Fixture f;
  Client client(0, &f.data.train, FirstN(100), 0.1, 0.0, 3);
  util::Rng rng(4);
  client.SetModel(ModelStore::Clone(nn::MakeC10Net(&rng)));
  LocalUpdateOptions options;
  options.batch_size = 16;
  double first = 0.0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    const auto result = client.LocalUpdate(options);
    if (epoch == 0) first = result.mean_loss;
    EXPECT_EQ(result.samples_processed, 100);
  }
  const auto last = client.LocalUpdate(options);
  EXPECT_LT(last.mean_loss, first);
}

TEST(ClientTest, LocalUpdateMovesParameters) {
  Fixture f;
  Client client(0, &f.data.train, FirstN(32), 0.05, 0.0, 5);
  util::Rng rng(6);
  const nn::Sequential initial = nn::MakeC10Net(&rng);
  client.SetModel(ModelStore::Clone(initial));
  (void)client.LocalUpdate({});
  EXPECT_GT(nn::ParamDistance(client.model(), initial), 0.0);
}

TEST(ClientTest, TauMultipliesWork) {
  Fixture f;
  Client client(0, &f.data.train, FirstN(30), 0.05, 0.0, 7);
  util::Rng rng(8);
  client.SetModel(ModelStore::Clone(nn::MakeC10Net(&rng)));
  LocalUpdateOptions options;
  options.epochs = 3;
  const auto result = client.LocalUpdate(options);
  EXPECT_EQ(result.samples_processed, 90);
}

TEST(ClientTest, EmptyClientIsNoop) {
  Fixture f;
  Client client(0, &f.data.train, {}, 0.05, 0.0, 9);
  const auto result = client.LocalUpdate({});
  EXPECT_EQ(result.samples_processed, 0);
  EXPECT_EQ(result.mean_loss, 0.0);
}

TEST(ClientTest, FedProxPullsTowardReference) {
  Fixture f;
  util::Rng rng(10);
  const nn::Sequential reference = nn::MakeC10Net(&rng);

  auto run = [&](double mu) {
    Client client(0, &f.data.train, FirstN(64), 0.05, 0.0, 11);
    client.SetModel(ModelStore::Clone(reference));
    client.SetProximalReference(std::make_shared<const std::vector<float>>(
        nn::FlattenParams(reference)));
    LocalUpdateOptions options;
    options.fedprox_mu = mu;
    options.epochs = 5;
    (void)client.LocalUpdate(options);
    return nn::ParamDistance(client.model(), reference);
  };
  // A strong proximal term keeps the iterate closer to the reference.
  EXPECT_LT(run(10.0), run(0.0));
}

TEST(ClientTest, SetModelReplacesParameters) {
  Fixture f;
  Client client(0, &f.data.train, FirstN(10), 0.05, 0.0, 12);
  util::Rng rng(13);
  const nn::Sequential a = nn::MakeC10Net(&rng);
  const nn::Sequential b = nn::MakeC10Net(&rng);
  client.SetModel(ModelStore::Clone(a));
  client.SetModel(ModelStore::Clone(b));
  EXPECT_EQ(nn::ParamDistance(client.model(), b), 0.0);
}

// A CRC-valid client record whose momentum buffers match the model's
// parameter count but not its shapes (a Dense 2->6 against a Dense 5->3,
// both 18 parameters in two tensors) must not load: the next SGD step
// would index each buffer by its parameter's size.
TEST(ClientStateTest, RejectsMomentumShapedUnlikeTheModel) {
  Fixture f;
  util::Rng rng(5);
  nn::Sequential other = nn::MakeMlp({2, 6}, &rng);
  nn::Sgd stepped(0.1, /*momentum=*/0.9);
  stepped.Step(&other);

  util::ByteWriter writer;
  writer.Io(int32_t{0});      // id
  writer.Io(uint64_t{10});    // sample count
  writer.Io(uint8_t{0});      // flags: inline parameters
  nn::IoParams(writer, &other);
  util::Save(stepped, &writer);
  util::Save(util::Rng(1), &writer);
  writer.Io(std::vector<float>());  // proximal reference

  Client victim(0, &f.data.train, FirstN(10), 0.1, 0.9, 1);
  victim.SetModel(ModelStore::Clone(nn::MakeMlp({5, 3}, &rng)));
  util::ByteReader reader(writer.bytes());
  const util::Status status = util::Load(&reader, &victim);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
}

}  // namespace
}  // namespace fedmigr::fl
