#include "fl/server.h"

#include <memory>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "nn/layers.h"
#include "nn/tensor_helpers.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::fl {
namespace {

nn::Sequential ConstantModel(float value) {
  util::Rng rng(1);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Dense>(2, 2, &rng));
  for (nn::Tensor* p : model.Params()) p->Fill(value);
  return model;
}

TEST(ServerTest, WeightedAverageExact) {
  const nn::Sequential a = ConstantModel(1.0f);
  const nn::Sequential b = ConstantModel(4.0f);
  nn::Sequential out = ConstantModel(0.0f);
  Server::WeightedAverage({&a, &b}, {3.0, 1.0}, &out);
  for (const nn::Tensor* p : out.Params()) {
    for (int64_t i = 0; i < p->size(); ++i) {
      EXPECT_NEAR((*p)[i], 1.75f, 1e-6f);
    }
  }
}

TEST(ServerTest, ZeroWeightModelIgnored) {
  const nn::Sequential a = ConstantModel(1.0f);
  const nn::Sequential b = ConstantModel(100.0f);
  nn::Sequential out = ConstantModel(0.0f);
  Server::WeightedAverage({&a, &b}, {1.0, 0.0}, &out);
  EXPECT_NEAR((*out.Params()[0])[0], 1.0f, 1e-6f);
}

TEST(ServerTest, AggregateOfIdenticalModelsIsIdentity) {
  util::Rng rng(2);
  const data::TrainTest data = data::GenerateSynthetic(data::C10Spec());
  nn::Sequential model = nn::MakeC10Net(&rng);
  Server server(model, &data.test);
  const std::unique_ptr<Aggregator> mean = MakeAggregator(AggregatorKind::kMean);
  server.SetAggregator(mean.get());
  server.Aggregate({&model, &model, &model}, {1.0, 2.0, 3.0});
  EXPECT_NEAR(nn::ParamDistance(server.global_model(), model),
              0.0, 1e-5);
}

TEST(ServerTest, EvaluationMetricsInRange) {
  util::Rng rng(3);
  const data::TrainTest data = data::GenerateSynthetic(data::C10Spec());
  Server server(nn::MakeC10Net(&rng), &data.test);
  const Evaluation eval = server.EvaluateGlobal();
  EXPECT_GE(eval.accuracy, 0.0);
  EXPECT_LE(eval.accuracy, 1.0);
  EXPECT_GT(eval.loss, 0.0);
}

TEST(ServerTest, UntrainedModelNearChance) {
  util::Rng rng(4);
  const data::TrainTest data = data::GenerateSynthetic(data::C10Spec());
  Server server(nn::MakeC10Net(&rng), &data.test);
  const Evaluation eval = server.EvaluateGlobal();
  EXPECT_LT(eval.accuracy, 0.35);  // chance is 0.1
}

TEST(ServerTest, EvaluateDoesNotMutateModel) {
  util::Rng rng(5);
  const data::TrainTest data = data::GenerateSynthetic(data::C10Spec());
  nn::Sequential model = nn::MakeC10Net(&rng);
  Server server(model, &data.test);
  (void)server.EvaluateGlobal();
  EXPECT_EQ(nn::ParamDistance(server.global_model(), model), 0.0);
}

}  // namespace
}  // namespace fedmigr::fl
