#include "util/serial.h"

#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace fedmigr::util {
namespace {

TEST(SerialTest, PrimitivesRoundTrip) {
  ByteWriter writer;
  writer.Io(uint8_t{7});
  writer.Io(uint32_t{0xDEADBEEFu});
  writer.Io(uint64_t{0x0123456789ABCDEFull});
  writer.Io(int32_t{-42});
  writer.Io(int64_t{-1234567890123LL});
  writer.Io(3.5f);
  writer.Io(-2.25);
  writer.Io(true);
  writer.Io(false);

  ByteReader reader(writer.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  float f32 = 0.0f;
  double f64 = 0.0;
  bool b1 = false, b2 = true;
  reader.Io(u8);
  reader.Io(u32);
  reader.Io(u64);
  reader.Io(i32);
  reader.Io(i64);
  reader.Io(f32);
  reader.Io(f64);
  reader.Io(b1);
  reader.Io(b2);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_EQ(f32, 3.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
}

TEST(SerialTest, FloatBitPatternsSurviveExactly) {
  // NaN, infinities and denormals must round-trip bit-exactly — the resume
  // determinism contract is byte equality, not value equality.
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -0.0,
  };
  ByteWriter writer;
  for (double v : specials) writer.Io(v);
  ByteReader reader(writer.bytes());
  for (double v : specials) {
    double out = 0.0;
    reader.Io(out);
    ASSERT_TRUE(reader.ok());
    uint64_t expected_bits = 0, actual_bits = 0;
    std::memcpy(&expected_bits, &v, sizeof(v));
    std::memcpy(&actual_bits, &out, sizeof(out));
    EXPECT_EQ(actual_bits, expected_bits);
  }
}

TEST(SerialTest, SequencesRoundTrip) {
  ByteWriter writer;
  writer.Io(std::string("hello snapshot"));
  writer.Io(std::vector<uint8_t>{0x00, 0xFF, 0x42});
  writer.Io(std::vector<float>{1.0f, -2.0f, 0.5f});
  writer.Io(std::vector<double>{});
  writer.Io(std::vector<int>{-1, 0, 1, 1 << 20});
  writer.Io(std::vector<bool>{true, false, true, true});

  ByteReader reader(writer.bytes());
  std::string s;
  std::vector<uint8_t> bytes;
  std::vector<float> f32s;
  std::vector<double> f64s = {9.0};
  std::vector<int> i32s;
  std::vector<bool> bools;
  reader.Io(s);
  reader.Io(bytes);
  reader.Io(f32s);
  reader.Io(f64s);
  reader.Io(i32s);
  reader.Io(bools);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(s, "hello snapshot");
  EXPECT_EQ(bytes, (std::vector<uint8_t>{0x00, 0xFF, 0x42}));
  EXPECT_EQ(f32s, (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_TRUE(f64s.empty());
  EXPECT_EQ(i32s, (std::vector<int>{-1, 0, 1, 1 << 20}));
  EXPECT_EQ(bools, (std::vector<bool>{true, false, true, true}));
}

// A map streams like the vector of its entries; the reader takes its keys
// only in the strictly increasing order the writer emits them, so a loaded
// map re-saves to the bytes it came from.
TEST(SerialTest, MapRejectsKeysThatAreNotStrictlyIncreasing) {
  using Entries = std::vector<std::pair<int, double>>;
  const Entries duplicate = {{1, 0.5}, {1, 2.0}};
  const Entries descending = {{3, 0.5}, {2, 2.0}};
  for (const Entries& entries : {duplicate, descending}) {
    ByteWriter writer;
    writer.Io(entries);
    std::map<int, double> map = {{7, 1.0}};
    ByteReader reader(writer.bytes());
    reader.Io(map);
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(reader.status().message(), "map keys not strictly increasing");
    EXPECT_EQ(map, (std::map<int, double>{{7, 1.0}}));
  }

  ByteWriter writer;
  writer.Io(Entries{{-4, 0.5}, {2, 2.0}, {9, -0.0}});
  std::map<int, double> map;
  ByteReader reader(writer.bytes());
  reader.Io(map);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  ByteWriter again;
  again.Io(map);
  EXPECT_EQ(again.bytes(), writer.bytes());
}

TEST(SerialTest, ReadPastEndFailsAndLeavesCursor) {
  ByteWriter writer;
  writer.Io(uint32_t{5});
  ByteReader reader(writer.bytes());
  uint64_t too_big = 7;
  reader.Io(too_big);
  EXPECT_FALSE(reader.ok());
  // The failed read consumes nothing and leaves its target alone; the
  // error is sticky, so a later read touches nothing either.
  EXPECT_EQ(reader.remaining(), sizeof(uint32_t));
  EXPECT_EQ(too_big, 7u);
  uint32_t later = 9;
  reader.Io(later);
  EXPECT_EQ(later, 9u);
  EXPECT_EQ(reader.remaining(), sizeof(uint32_t));
}

TEST(SerialTest, EmptyBufferFailsEverything) {
  uint8_t u8;
  std::string s;
  std::vector<float> f;
  ByteReader r1(nullptr, 0);
  r1.Io(u8);
  EXPECT_FALSE(r1.ok());
  ByteReader r2(nullptr, 0);
  r2.Io(s);
  EXPECT_FALSE(r2.ok());
  ByteReader r3(nullptr, 0);
  r3.Io(f);
  EXPECT_FALSE(r3.ok());
}

TEST(SerialTest, OversizedCountIsRejectedWithoutAllocating) {
  // A u64 count far beyond the bytes that follow must be rejected up front
  // (the fuzz-safety property: no multi-terabyte resize on corrupt input).
  ByteWriter writer;
  writer.Io(std::numeric_limits<uint64_t>::max());
  writer.Io(1.0f);
  ByteReader reader(writer.bytes());
  std::vector<float> values;
  reader.Io(values);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(values.empty());
}

TEST(SerialTest, InvalidBoolByteRejected) {
  const std::vector<uint8_t> bytes = {2};
  ByteReader reader(bytes);
  bool value = false;
  reader.Io(value);
  EXPECT_FALSE(reader.ok());
}

TEST(SerialTest, TruncationAtEveryOffsetFailsCleanly) {
  ByteWriter writer;
  writer.Io(std::string("abcdef"));
  writer.Io(std::vector<int>{1, 2, 3});
  writer.Io(1.5);
  const std::vector<uint8_t>& full = writer.bytes();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader reader(full.data(), cut);
    std::string s;
    std::vector<int> v;
    double d;
    reader.Io(s);
    reader.Io(v);
    reader.Io(d);
    EXPECT_FALSE(reader.ok()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace fedmigr::util
