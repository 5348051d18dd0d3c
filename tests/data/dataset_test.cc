#include "data/dataset.h"

#include <numeric>

#include <gtest/gtest.h>

#include "data/distribution_oracles.h"
#include "util/rng.h"

namespace fedmigr::data {
namespace {

Dataset TinyDataset() {
  // 6 samples, 2 features each, 3 classes.
  nn::Tensor features({6, 2}, {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5});
  return Dataset(std::move(features), {0, 1, 2, 0, 1, 2}, 3);
}

TEST(DatasetTest, BasicAccessors) {
  const Dataset d = TinyDataset();
  EXPECT_EQ(d.size(), 6);
  EXPECT_EQ(d.num_classes(), 3);
  EXPECT_EQ(d.label(4), 1);
  EXPECT_EQ(d.sample_shape(), (nn::Shape{2}));
  EXPECT_EQ(d.sample_size(), 2);
}

TEST(DatasetTest, GatherCopiesRows) {
  const Dataset d = TinyDataset();
  nn::Tensor batch;
  std::vector<int> labels;
  d.Gather({1, 4}, &batch, &labels);
  EXPECT_EQ(batch.shape(), (nn::Shape{2, 2}));
  EXPECT_EQ(batch.At(0, 0), 1.0f);
  EXPECT_EQ(batch.At(1, 1), 4.0f);
  EXPECT_EQ(labels, (std::vector<int>{1, 1}));
}

TEST(DatasetTest, ClassCounts) {
  const Dataset d = TinyDataset();
  EXPECT_EQ(ClassCounts(d), (std::vector<int>{2, 2, 2}));
}

TEST(BatchIteratorTest, CoversEveryIndexOnce) {
  const Dataset d = TinyDataset();
  util::Rng rng(1);
  BatchIterator it(&d, {}, 4, &rng);
  EXPECT_EQ(it.num_samples(), 6);

  nn::Tensor batch;
  std::vector<int> labels;
  int batches = 0;
  int total = 0;
  std::vector<int> class_counts(3, 0);
  while (it.Next(&batch, &labels)) {
    ++batches;
    total += static_cast<int>(labels.size());
    for (int l : labels) ++class_counts[static_cast<size_t>(l)];
  }
  EXPECT_EQ(batches, 2);
  EXPECT_EQ(total, 6);
  EXPECT_EQ(class_counts, (std::vector<int>{2, 2, 2}));
}

TEST(BatchIteratorTest, LastBatchMayBeSmall) {
  const Dataset d = TinyDataset();
  BatchIterator it(&d, {}, 4, nullptr);
  nn::Tensor batch;
  std::vector<int> labels;
  ASSERT_TRUE(it.Next(&batch, &labels));
  EXPECT_EQ(labels.size(), 4u);
  ASSERT_TRUE(it.Next(&batch, &labels));
  EXPECT_EQ(labels.size(), 2u);
  EXPECT_FALSE(it.Next(&batch, &labels));
}

TEST(BatchIteratorTest, ResetStartsNewEpoch) {
  const Dataset d = TinyDataset();
  BatchIterator it(&d, {}, 6, nullptr);
  nn::Tensor batch;
  std::vector<int> labels;
  EXPECT_TRUE(it.Next(&batch, &labels));
  EXPECT_FALSE(it.Next(&batch, &labels));
  it.Reset();
  EXPECT_TRUE(it.Next(&batch, &labels));
}

TEST(BatchIteratorTest, RestrictedIndices) {
  const Dataset d = TinyDataset();
  BatchIterator it(&d, {2, 5}, 8, nullptr);
  nn::Tensor batch;
  std::vector<int> labels;
  ASSERT_TRUE(it.Next(&batch, &labels));
  EXPECT_EQ(labels, (std::vector<int>{2, 2}));
}

TEST(BatchIteratorTest, ShuffleChangesOrderAcrossEpochs) {
  // 32-sample dataset so identical shuffles are vanishingly unlikely.
  nn::Tensor features({32, 1});
  std::vector<int> labels(32, 0);
  for (int i = 0; i < 32; ++i) features[i] = static_cast<float>(i);
  const Dataset d(std::move(features), std::move(labels), 1);

  util::Rng rng(3);
  BatchIterator it(&d, {}, 32, &rng);
  nn::Tensor batch;
  std::vector<int> batch_labels;
  ASSERT_TRUE(it.Next(&batch, &batch_labels));
  std::vector<float> first(batch.data(), batch.data() + 32);
  it.Reset();
  ASSERT_TRUE(it.Next(&batch, &batch_labels));
  std::vector<float> second(batch.data(), batch.data() + 32);
  EXPECT_NE(first, second);
}

TEST(BatchIteratorTest, MultiEpochExactCoverage) {
  // Across E shuffled epochs every sample appears exactly E times.
  nn::Tensor features({13, 1});
  std::vector<int> labels(13, 0);
  for (int i = 0; i < 13; ++i) features[i] = static_cast<float>(i);
  const Dataset d(std::move(features), std::move(labels), 1);
  util::Rng rng(6);
  BatchIterator it(&d, {}, 5, &rng);
  std::vector<int> seen(13, 0);
  const int epochs = 7;
  nn::Tensor batch;
  std::vector<int> batch_labels;
  for (int e = 0; e < epochs; ++e) {
    if (e > 0) it.Reset();
    while (it.Next(&batch, &batch_labels)) {
      for (int64_t i = 0; i < batch.size(); ++i) {
        ++seen[static_cast<size_t>(batch[i])];
      }
    }
  }
  for (int count : seen) EXPECT_EQ(count, epochs);
}

TEST(BatchIteratorTest, NullRngMeansNoShuffle) {
  const Dataset d = TinyDataset();
  BatchIterator it(&d, {}, 6, nullptr);
  nn::Tensor batch;
  std::vector<int> labels;
  ASSERT_TRUE(it.Next(&batch, &labels));
  EXPECT_EQ(labels, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

}  // namespace
}  // namespace fedmigr::data
