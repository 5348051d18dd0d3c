// Copy-on-write model store semantics: aliasing, clone-on-first-write,
// share-demotes-ownership and refcount behavior. These invariants are what
// make a million idle clients cost one model block.

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/model_store.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::fl {
namespace {

nn::Sequential TinyModel(uint64_t seed) {
  util::Rng rng(seed);
  return nn::MakeC10Net(&rng);
}

data::TrainTest TinyData() {
  data::SyntheticSpec spec = data::C10Spec();
  spec.train_per_class = 4;
  spec.test_per_class = 2;
  return data::GenerateSynthetic(spec);
}

std::vector<int> SomeIndices(int n) {
  std::vector<int> indices(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) indices[static_cast<size_t>(i)] = i;
  return indices;
}

TEST(ModelStoreTest, PublishCopiesAndFlattens) {
  ModelStore store;
  nn::Sequential model = TinyModel(1);
  const ModelRef& published = store.Publish(model);
  ASSERT_NE(published, nullptr);
  ASSERT_NE(store.aggregate_flat(), nullptr);
  EXPECT_EQ(nn::SerializeParams(*published), nn::SerializeParams(model));
  EXPECT_EQ(static_cast<int64_t>(store.aggregate_flat()->size()),
            model.NumParams());

  // Publish deep-copies: mutating the input afterwards must not reach the
  // published block.
  const std::vector<uint8_t> before = nn::SerializeParams(*store.aggregate());
  (*model.Params()[0])[0] += 1.0f;
  EXPECT_EQ(nn::SerializeParams(*store.aggregate()), before);
}

TEST(ModelStoreTest, AliasedClientsShareOneBlock) {
  const data::TrainTest data = TinyData();
  ModelStore store;
  store.Publish(TinyModel(2));

  Client a(0, &data.train, SomeIndices(8), 0.05, 0.0, 11);
  Client b(1, &data.train, SomeIndices(8), 0.05, 0.0, 12);
  a.SetModel(store.aggregate());
  b.SetModel(store.aggregate());
  EXPECT_FALSE(a.owns_model());
  EXPECT_FALSE(b.owns_model());
  EXPECT_EQ(a.model_ref(), b.model_ref());
  EXPECT_EQ(&a.model(), store.aggregate().get());
  // store + 2 aliases.
  EXPECT_EQ(store.aggregate_use_count(), 3);
}

TEST(ModelStoreTest, FirstWriteClonesAndNeverLeaks) {
  const data::TrainTest data = TinyData();
  ModelStore store;
  store.Publish(TinyModel(3));
  const std::vector<uint8_t> aggregate_bytes =
      nn::SerializeParams(*store.aggregate());

  Client a(0, &data.train, SomeIndices(8), 0.05, 0.0, 11);
  a.SetModel(store.aggregate());
  LocalUpdateOptions options;
  options.batch_size = 4;
  a.LocalUpdate(options);

  // The write went to a private clone...
  EXPECT_TRUE(a.owns_model());
  EXPECT_NE(a.model_ref(), store.aggregate());
  EXPECT_NE(nn::SerializeParams(a.model()), aggregate_bytes);
  // ...and the shared block is untouched.
  EXPECT_EQ(nn::SerializeParams(*store.aggregate()), aggregate_bytes);
  EXPECT_EQ(store.aggregate_use_count(), 1);
}

TEST(ModelStoreTest, WriteAfterShareDoesNotReachTheReceiver) {
  const data::TrainTest data = TinyData();
  ModelStore store;
  store.Publish(TinyModel(4));

  Client src(0, &data.train, SomeIndices(8), 0.05, 0.0, 21);
  Client dst(1, &data.train, SomeIndices(8), 0.05, 0.0, 22);
  src.SetModel(store.aggregate());
  LocalUpdateOptions options;
  options.batch_size = 4;
  src.LocalUpdate(options);  // src now owns a private block

  // Migration-style move: dst receives src's block without a copy.
  dst.SetModel(src.share_model());
  EXPECT_FALSE(src.owns_model());
  EXPECT_FALSE(dst.owns_model());
  EXPECT_EQ(src.model_ref(), dst.model_ref());
  const std::vector<uint8_t> migrated = nn::SerializeParams(dst.model());

  // The source trains on; the receiver's view must not change.
  src.LocalUpdate(options);
  EXPECT_NE(src.model_ref(), dst.model_ref());
  EXPECT_EQ(nn::SerializeParams(dst.model()), migrated);
}

TEST(ModelStoreTest, RepublishDropsOldAliasesNaturally) {
  const data::TrainTest data = TinyData();
  ModelStore store;
  store.Publish(TinyModel(5));

  Client a(0, &data.train, SomeIndices(8), 0.05, 0.0, 31);
  a.SetModel(store.aggregate());
  const ModelRef old_block = store.aggregate();
  EXPECT_EQ(old_block.use_count(), 3);  // store + a + old_block

  // A new aggregate round: the store points at a fresh block; re-aliasing
  // the client releases the old one.
  store.Publish(TinyModel(6));
  a.SetModel(store.aggregate());
  EXPECT_EQ(old_block.use_count(), 1);  // only this test's handle remains
  EXPECT_EQ(store.aggregate_use_count(), 2);
}

TEST(ModelStoreTest, ProximalReferenceAliasesTheFlattenedAggregate) {
  const data::TrainTest data = TinyData();
  ModelStore store;
  store.Publish(TinyModel(7));

  Client a(0, &data.train, SomeIndices(8), 0.05, 0.0, 41);
  a.SetProximalReference(store.aggregate_flat());
  EXPECT_EQ(a.proximal_reference(), store.aggregate_flat());
}

}  // namespace
}  // namespace fedmigr::fl
