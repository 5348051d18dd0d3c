#include "rl/replay_buffer.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

namespace fedmigr::rl {
namespace {

Transition MakeTransition(float reward) {
  Transition t;
  t.candidates = {{reward}};
  t.action_index = 0;
  t.reward = reward;
  return t;
}

TEST(SumTreeTest, TotalTracksUpdates) {
  SumTree tree(4);
  EXPECT_EQ(tree.Total(), 0.0);
  tree.Set(0, 1.0);
  tree.Set(2, 3.0);
  EXPECT_DOUBLE_EQ(tree.Total(), 4.0);
  tree.Set(0, 0.5);
  EXPECT_DOUBLE_EQ(tree.Total(), 3.5);
  EXPECT_DOUBLE_EQ(tree.Get(2), 3.0);
}

TEST(SumTreeTest, FindLocatesInterval) {
  SumTree tree(4);
  tree.Set(0, 1.0);
  tree.Set(1, 2.0);
  tree.Set(2, 3.0);
  tree.Set(3, 4.0);
  EXPECT_EQ(tree.Find(0.5), 0u);
  EXPECT_EQ(tree.Find(1.5), 1u);
  EXPECT_EQ(tree.Find(3.5), 2u);
  EXPECT_EQ(tree.Find(9.9), 3u);
}

TEST(SumTreeTest, NonPowerOfTwoCapacity) {
  SumTree tree(5);
  for (size_t i = 0; i < 5; ++i) tree.Set(i, 1.0);
  EXPECT_DOUBLE_EQ(tree.Total(), 5.0);
  EXPECT_EQ(tree.Find(4.5), 4u);
}

TEST(ReplayBufferTest, SizeGrowsToCapacity) {
  PrioritizedReplayBuffer buffer(3);
  EXPECT_TRUE(buffer.empty());
  for (int i = 0; i < 5; ++i) buffer.Add(MakeTransition(1.0f));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.capacity(), 3u);
}

TEST(ReplayBufferTest, OverwritesOldestEntries) {
  PrioritizedReplayBuffer buffer(2);
  buffer.Add(MakeTransition(1.0f));
  buffer.Add(MakeTransition(2.0f));
  buffer.Add(MakeTransition(3.0f));  // overwrites reward 1
  util::Rng rng(1);
  std::map<float, int> rewards;
  for (int i = 0; i < 100; ++i) {
    for (const auto& sample : buffer.Sample(1, &rng)) {
      rewards[sample.transition->reward]++;
    }
  }
  EXPECT_EQ(rewards.count(1.0f), 0u);
  EXPECT_GT(rewards[2.0f], 0);
  EXPECT_GT(rewards[3.0f], 0);
}

TEST(ReplayBufferTest, SampleReturnsValidPointers) {
  PrioritizedReplayBuffer buffer(8);
  for (int i = 0; i < 8; ++i) {
    buffer.Add(MakeTransition(static_cast<float>(i)));
  }
  util::Rng rng(2);
  const auto batch = buffer.Sample(4, &rng);
  EXPECT_EQ(batch.size(), 4u);
  for (const auto& sample : batch) {
    ASSERT_NE(sample.transition, nullptr);
    EXPECT_LT(sample.index, buffer.size());
    EXPECT_GT(sample.weight, 0.0);
    EXPECT_LE(sample.weight, 1.0 + 1e-9);
  }
}

TEST(ReplayBufferTest, HighPrioritySampledMoreOften) {
  PrioritizedReplayBuffer buffer(2, /*xi=*/1.0);
  buffer.Add(MakeTransition(0.0f));
  buffer.Add(MakeTransition(1.0f));
  buffer.UpdatePriority(0, 0.1);
  buffer.UpdatePriority(1, 10.0);
  util::Rng rng(3);
  int hits_high = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto batch = buffer.Sample(1, &rng);
    if (batch[0].index == 1) ++hits_high;
  }
  EXPECT_GT(static_cast<double>(hits_high) / n, 0.9);
}

TEST(ReplayBufferTest, XiZeroIsUniform) {
  PrioritizedReplayBuffer buffer(2, /*xi=*/0.0);
  buffer.Add(MakeTransition(0.0f));
  buffer.Add(MakeTransition(1.0f));
  buffer.UpdatePriority(0, 0.01);
  buffer.UpdatePriority(1, 100.0);
  util::Rng rng(4);
  int hits_high = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (buffer.Sample(1, &rng)[0].index == 1) ++hits_high;
  }
  EXPECT_NEAR(static_cast<double>(hits_high) / n, 0.5, 0.05);
}

TEST(ReplayBufferTest, ImportanceWeightsCounterPrioritization) {
  PrioritizedReplayBuffer buffer(2, /*xi=*/1.0, /*beta=*/1.0);
  buffer.Add(MakeTransition(0.0f));
  buffer.Add(MakeTransition(1.0f));
  buffer.UpdatePriority(0, 1.0);
  buffer.UpdatePriority(1, 9.0);
  // Compare within a batch that contains both transitions (weights are
  // normalized per batch, so cross-batch values are not comparable).
  util::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto batch = buffer.Sample(2, &rng);
    double low_weight = -1.0, high_weight = -1.0;
    for (const auto& sample : batch) {
      if (sample.index == 0) {
        low_weight = sample.weight;
      } else {
        high_weight = sample.weight;
      }
    }
    if (low_weight < 0.0 || high_weight < 0.0) continue;
    // The frequently-sampled transition gets the smaller weight.
    EXPECT_LT(high_weight, low_weight);
    return;
  }
  FAIL() << "never sampled both transitions in one batch";
}

TEST(ReplayBufferTest, ZeroPriorityStaysReachable) {
  PrioritizedReplayBuffer buffer(2);
  buffer.Add(MakeTransition(0.0f));
  buffer.Add(MakeTransition(1.0f));
  // Both clamped to the same small floor -> sampling stays well-defined
  // and roughly uniform.
  buffer.UpdatePriority(0, 0.0);
  buffer.UpdatePriority(1, 0.0);
  util::Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 2000; ++i) {
    if (buffer.Sample(1, &rng)[0].index == 0) ++hits;
  }
  EXPECT_GT(hits, 500);
  EXPECT_LT(hits, 1500);
}

Transition RichTransition(float base) {
  Transition t;
  t.candidates = {{base, base + 1.0f}, {base * 2.0f, -base}};
  t.action_index = 1;
  t.reward = base * 0.5f;
  t.done = false;
  t.next_candidates = {{base + 3.0f, base - 3.0f}};
  return t;
}

TEST(ReplayBufferStateTest, SaveLoadRoundTripsContentsAndPriorities) {
  PrioritizedReplayBuffer buffer(4, /*xi=*/0.7, /*beta=*/0.5);
  for (int i = 0; i < 6; ++i) {  // wraps: oldest two overwritten
    buffer.Add(RichTransition(static_cast<float>(i)));
  }
  buffer.UpdatePriority(1, 3.0);
  buffer.UpdatePriority(2, 0.25);

  util::ByteWriter writer;
  util::Save(buffer, &writer);
  PrioritizedReplayBuffer restored(4, /*xi=*/0.7, /*beta=*/0.5);
  util::ByteReader reader(writer.bytes());
  ASSERT_TRUE(util::Load(&reader, &restored).ok());
  EXPECT_TRUE(reader.AtEnd());

  ASSERT_EQ(restored.size(), buffer.size());
  // Identical sampling behavior from identical RNG streams is the property
  // the resume contract needs.
  util::Rng rng_a(77), rng_b(77);
  for (int trial = 0; trial < 200; ++trial) {
    const auto batch_a = buffer.Sample(2, &rng_a);
    const auto batch_b = restored.Sample(2, &rng_b);
    for (size_t j = 0; j < batch_a.size(); ++j) {
      ASSERT_EQ(batch_a[j].index, batch_b[j].index);
      ASSERT_EQ(batch_a[j].weight, batch_b[j].weight);
      ASSERT_EQ(batch_a[j].transition->reward,
                batch_b[j].transition->reward);
      ASSERT_EQ(batch_a[j].transition->candidates,
                batch_b[j].transition->candidates);
      ASSERT_EQ(batch_a[j].transition->next_candidates,
                batch_b[j].transition->next_candidates);
      ASSERT_EQ(batch_a[j].transition->action_index,
                batch_b[j].transition->action_index);
    }
  }
  // New additions continue identically too (same max_priority_, next_).
  buffer.Add(RichTransition(9.0f));
  restored.Add(RichTransition(9.0f));
  const auto a = buffer.Sample(4, &rng_a);
  const auto b = restored.Sample(4, &rng_b);
  for (size_t j = 0; j < a.size(); ++j) {
    ASSERT_EQ(a[j].index, b[j].index);
    ASSERT_EQ(a[j].weight, b[j].weight);
  }
}

TEST(ReplayBufferStateTest, PartiallyFilledBufferRoundTrips) {
  PrioritizedReplayBuffer buffer(8);
  buffer.Add(RichTransition(1.0f));
  buffer.Add(RichTransition(2.0f));
  util::ByteWriter writer;
  util::Save(buffer, &writer);
  PrioritizedReplayBuffer restored(8);
  util::ByteReader reader(writer.bytes());
  ASSERT_TRUE(util::Load(&reader, &restored).ok());
  EXPECT_EQ(restored.size(), 2u);
}

TEST(ReplayBufferStateTest, EmptyBufferRoundTrips) {
  PrioritizedReplayBuffer buffer(3);
  util::ByteWriter writer;
  util::Save(buffer, &writer);
  PrioritizedReplayBuffer restored(3);
  util::ByteReader reader(writer.bytes());
  ASSERT_TRUE(util::Load(&reader, &restored).ok());
  EXPECT_TRUE(restored.empty());
}

TEST(ReplayBufferStateTest, CapacityMismatchRejected) {
  PrioritizedReplayBuffer buffer(4);
  buffer.Add(RichTransition(1.0f));
  util::ByteWriter writer;
  util::Save(buffer, &writer);
  PrioritizedReplayBuffer wrong(8);
  util::ByteReader reader(writer.bytes());
  EXPECT_FALSE(util::Load(&reader, &wrong).ok());
}

TEST(ReplayBufferStateTest, TruncationFuzzNeverCrashes) {
  PrioritizedReplayBuffer buffer(4);
  for (int i = 0; i < 4; ++i) buffer.Add(RichTransition(1.0f + i));
  util::ByteWriter writer;
  util::Save(buffer, &writer);
  const std::vector<uint8_t>& full = writer.bytes();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    PrioritizedReplayBuffer victim(4);
    util::ByteReader reader(full.data(), cut);
    EXPECT_FALSE(util::Load(&reader, &victim).ok()) << "cut " << cut;
  }
}

TEST(ReplayBufferStateTest, BitFlipFuzzNeverCrashes) {
  PrioritizedReplayBuffer buffer(2);
  buffer.Add(RichTransition(1.0f));
  buffer.Add(RichTransition(2.0f));
  util::ByteWriter writer;
  util::Save(buffer, &writer);
  const std::vector<uint8_t> full = writer.bytes();
  for (size_t pos = 0; pos < full.size(); ++pos) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto corrupt = full;
      corrupt[pos] ^= static_cast<uint8_t>(1u << bit);
      PrioritizedReplayBuffer victim(2);
      util::ByteReader reader(corrupt);
      // Either a clean error or a structurally valid buffer; never a crash
      // or hang (ASan/UBSan enforce the rest).
      (void)util::Load(&reader, &victim);
    }
  }
}

}  // namespace
}  // namespace fedmigr::rl
