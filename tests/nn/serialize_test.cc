#include "nn/serialize.h"

#include <cstring>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/tensor_helpers.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedmigr::nn {
namespace {

Sequential SmallModel(uint64_t seed) {
  util::Rng rng(seed);
  Sequential model;
  model.Add(std::make_unique<Dense>(3, 4, &rng));
  model.Add(std::make_unique<ReLU>());
  model.Add(std::make_unique<Dense>(4, 2, &rng));
  return model;
}

TEST(SerializeTest, FlattenLengthMatchesNumParams) {
  Sequential model = SmallModel(1);
  EXPECT_EQ(static_cast<int64_t>(FlattenParams(model).size()),
            model.NumParams());
}

TEST(SerializeTest, FlattenUnflattenRoundTrip) {
  Sequential a = SmallModel(2);
  Sequential b = SmallModel(3);
  ASSERT_TRUE(UnflattenParams(FlattenParams(a), &b).ok());
  EXPECT_EQ(ParamDistance(a, b), 0.0);
}

TEST(SerializeTest, UnflattenRejectsWrongSize) {
  Sequential model = SmallModel(4);
  const std::vector<float> wrong(static_cast<size_t>(model.NumParams()) + 1);
  EXPECT_FALSE(UnflattenParams(wrong, &model).ok());
}

TEST(SerializeTest, ByteRoundTrip) {
  Sequential a = SmallModel(5);
  Sequential b = SmallModel(6);
  ASSERT_TRUE(DeserializeParams(SerializeParams(a), &b).ok());
  EXPECT_EQ(ParamDistance(a, b), 0.0);
}

TEST(SerializeTest, ByteSizeIsFramePlusFloats) {
  Sequential model = SmallModel(7);
  const auto bytes = SerializeParams(model);
  // v2 frame: magic + version + count + payload + crc32.
  EXPECT_EQ(bytes.size(),
            2 * sizeof(uint32_t) + sizeof(uint64_t) +
                static_cast<size_t>(model.NumParams()) * sizeof(float) +
                sizeof(uint32_t));
}

TEST(SerializeTest, DeserializeRejectsTruncatedBuffer) {
  Sequential model = SmallModel(8);
  auto bytes = SerializeParams(model);
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(DeserializeParams(bytes, &model).ok());
}

TEST(SerializeTest, DeserializeRejectsEmptyBuffer) {
  Sequential model = SmallModel(9);
  EXPECT_FALSE(DeserializeParams({}, &model).ok());
}

TEST(SerializeTest, DeserializeRejectsMismatchedArchitecture) {
  util::Rng rng(10);
  Sequential a = SmallModel(11);
  Sequential bigger;
  bigger.Add(std::make_unique<Dense>(10, 10, &rng));
  EXPECT_FALSE(DeserializeParams(SerializeParams(a), &bigger).ok());
}

TEST(SerializeTest, BitFlipInPayloadIsRejectedAsDataLoss) {
  Sequential a = SmallModel(20);
  Sequential b = SmallModel(21);
  auto bytes = SerializeParams(a);
  bytes[bytes.size() / 2] ^= 0x01;  // single bit flip mid-payload
  const util::Status status = DeserializeParams(bytes, &b);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
  // The receiver's model is architecture-compatible but must not have
  // absorbed the corrupted payload silently.
  Sequential c = SmallModel(21);
  EXPECT_EQ(ParamDistance(b, c), 0.0);
}

TEST(SerializeTest, NonFinitePayloadIsRejectedAsDataLoss) {
  // A NaN parameter survives CRC (it is a faithful encoding of a broken
  // model, not a transport error), so the wire gate must catch it before
  // it can brick the receiver's weights.
  Sequential a = SmallModel(26);
  a.Params()[0]->data()[0] = std::numeric_limits<float>::quiet_NaN();
  Sequential b = SmallModel(27);
  const util::Status status = DeserializeParams(SerializeParams(a), &b);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
  Sequential c = SmallModel(27);
  EXPECT_EQ(ParamDistance(b, c), 0.0);

  // Same gate on the legacy v1 frame path, with an Inf.
  Sequential d = SmallModel(28);
  d.Params()[0]->data()[0] = std::numeric_limits<float>::infinity();
  const std::vector<float> flat = FlattenParams(d);
  const uint64_t count = flat.size();
  std::vector<uint8_t> bytes(sizeof(uint64_t) + flat.size() * sizeof(float));
  std::memcpy(bytes.data(), &count, sizeof(uint64_t));
  std::memcpy(bytes.data() + sizeof(uint64_t), flat.data(),
              flat.size() * sizeof(float));
  const util::Status legacy = DeserializeParams(bytes, &d);
  EXPECT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.code(), util::StatusCode::kDataLoss);
}

TEST(SerializeTest, BitFlipInHeaderIsRejected) {
  Sequential a = SmallModel(22);
  auto bytes = SerializeParams(a);
  bytes[9] ^= 0x40;  // inside the count field
  EXPECT_FALSE(DeserializeParams(bytes, &a).ok());
}

TEST(SerializeTest, TruncatedV2FrameIsRejected) {
  Sequential a = SmallModel(23);
  auto bytes = SerializeParams(a);
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(DeserializeParams(bytes, &a).ok());
}

TEST(SerializeTest, UnsupportedVersionIsRejected) {
  Sequential a = SmallModel(24);
  auto bytes = SerializeParams(a);
  bytes[4] = 99;  // version field
  const util::Status status = DeserializeParams(bytes, &a);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, LegacyV1FrameStillLoads) {
  // Hand-build the legacy [uint64 count][payload] encoding.
  Sequential a = SmallModel(25);
  const std::vector<float> flat = FlattenParams(a);
  const uint64_t count = flat.size();
  std::vector<uint8_t> bytes(sizeof(uint64_t) + flat.size() * sizeof(float));
  std::memcpy(bytes.data(), &count, sizeof(uint64_t));
  std::memcpy(bytes.data() + sizeof(uint64_t), flat.data(),
              flat.size() * sizeof(float));
  Sequential b = SmallModel(26);
  ASSERT_TRUE(DeserializeParams(bytes, &b).ok());
  EXPECT_EQ(ParamDistance(a, b), 0.0);
}

TEST(SerializeTest, LegacyFrameWithOverflowingCountIsRejected) {
  std::vector<uint8_t> bytes(sizeof(uint64_t) + 4);
  const uint64_t huge = ~0ULL / 2;  // would overflow count * sizeof(float)
  std::memcpy(bytes.data(), &huge, sizeof(uint64_t));
  Sequential model = SmallModel(27);
  EXPECT_FALSE(DeserializeParams(bytes, &model).ok());
}

TEST(SerializeTest, LoadEmptyCheckpointFails) {
  Sequential model = SmallModel(28);
  const util::Status status = DeserializeParams({}, &model);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, LoadTruncatedCheckpointFails) {
  Sequential a = SmallModel(29);
  auto bytes = SerializeParams(a);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeParams(bytes, &a).ok());
}

TEST(SerializeTest, CheckpointBitFlipSweepNeverLoadsSilently) {
  // Flip one bit at a spread of positions across the payload; every
  // corrupted variant must be rejected (frame checks or CRC), never absorbed.
  Sequential a = SmallModel(35);
  const auto bytes = SerializeParams(a);
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0x10;
    Sequential victim = SmallModel(36);
    EXPECT_FALSE(DeserializeParams(corrupt, &victim).ok())
        << "flip at " << pos;
    Sequential pristine = SmallModel(36);
    EXPECT_EQ(ParamDistance(victim, pristine), 0.0)
        << "partial load at " << pos;
  }
}

TEST(SerializeTest, WriteReadTensorRoundTrip) {
  Tensor t({2, 3});
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(i) * 0.5f - 1.0f;
  }
  util::ByteWriter writer;
  util::Save(t, &writer);
  util::ByteReader reader(writer.bytes());
  Tensor out;
  ASSERT_TRUE(util::Load(&reader, &out).ok());
  EXPECT_TRUE(reader.AtEnd());
  ASSERT_EQ(out.shape(), t.shape());
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(out[i], t[i]);
}

TEST(SerializeTest, WriteReadDefaultTensorRoundTrip) {
  util::ByteWriter writer;
  util::Save(Tensor(), &writer);
  util::ByteReader reader(writer.bytes());
  Tensor out({4});
  ASSERT_TRUE(util::Load(&reader, &out).ok());
  EXPECT_TRUE(out.shape().empty());
  EXPECT_EQ(out.size(), 0);
}

TEST(SerializeTest, ReadTensorSurvivesTruncationFuzz) {
  Tensor t({3, 2, 2});
  util::ByteWriter writer;
  util::Save(t, &writer);
  const std::vector<uint8_t>& full = writer.bytes();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    util::ByteReader reader(full.data(), cut);
    Tensor out;
    EXPECT_FALSE(util::Load(&reader, &out).ok()) << "cut " << cut;
  }
}

TEST(SerializeTest, ReadTensorSurvivesBitFlipFuzz) {
  // Bit flips in the shape/count header can encode huge or negative
  // element counts; every variant must produce an error or a consistent
  // tensor — never a crash or over-allocation.
  Tensor t({2, 2});
  util::ByteWriter writer;
  util::Save(t, &writer);
  const std::vector<uint8_t> full = writer.bytes();
  for (size_t pos = 0; pos < full.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = full;
      corrupt[pos] ^= static_cast<uint8_t>(1u << bit);
      util::ByteReader reader(corrupt);
      Tensor out;
      const util::Status status = util::Load(&reader, &out);
      if (status.ok()) {
        // Accepted streams must at least be self-consistent.
        int64_t elements = out.shape().empty() ? 0 : 1;
        for (int d : out.shape()) elements *= d;
        EXPECT_EQ(out.size(), elements);
      }
    }
  }
}

TEST(SerializeTest, WriteReadParamsRoundTrip) {
  Sequential a = SmallModel(37);
  Sequential b = SmallModel(38);
  util::ByteWriter writer;
  IoParams(writer, &a);
  util::ByteReader reader(writer.bytes());
  IoParams(reader, &b);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(ParamDistance(a, b), 0.0);
}

TEST(SerializeTest, ReadParamsRejectsWrongArchitecture) {
  Sequential a = SmallModel(39);
  util::ByteWriter writer;
  IoParams(writer, &a);
  util::Rng rng(40);
  Sequential other;
  other.Add(std::make_unique<Dense>(9, 9, &rng));
  util::ByteReader reader(writer.bytes());
  IoParams(reader, &other);
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, ZooModelsRoundTrip) {
  util::Rng rng(12);
  Sequential a = MakeC10Net(&rng);
  Sequential b = MakeC10Net(&rng);
  ASSERT_TRUE(DeserializeParams(SerializeParams(a), &b).ok());
  EXPECT_EQ(ParamDistance(a, b), 0.0);
}

}  // namespace
}  // namespace fedmigr::nn
