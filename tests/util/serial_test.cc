#include "util/serial.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
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

// A record of a sparse store: two fields streamed as separate sequences,
// and a Visit for streaming whole records.
struct SparseRecord {
  std::vector<double> dist;
  double weight = 0.0;
  int32_t tag = -1;

  template <class Ar>
  Status Visit(Ar& ar) {
    ar.Io(weight);
    ar.Io(tag);
    return ar.status();
  }
  bool operator==(const SparseRecord&) const = default;
};

TEST(SerialTest, SparseSeqStreamsTheBytesAndDigestOfItsDenseVector) {
  constexpr size_t kSize = 9;
  // Projected fields of one store, and whole records of another.
  std::map<int, SparseRecord> fields;
  fields[0] = {{0.25, 0.75}, 2.0, -1};
  fields[4] = {{}, -0.0, -1};  // -0.0 is not the default's bytes
  fields[8] = {{1.0}, 0.0, -1};
  std::map<int, SparseRecord> wholes;
  wholes[3] = {{}, 1.5, 7};
  wholes[8] = {{}, 0.0, 0};
  std::vector<std::vector<double>> dists(kSize);
  std::vector<double> weights(kSize, 0.0);
  std::vector<SparseRecord> records(kSize);
  for (const auto& [id, record] : fields) {
    dists[static_cast<size_t>(id)] = record.dist;
    weights[static_cast<size_t>(id)] = record.weight;
  }
  for (const auto& [id, record] : wholes) {
    records[static_cast<size_t>(id)] = record;
  }
  const auto sparse = [&](std::map<int, SparseRecord>& f,
                          std::map<int, SparseRecord>& w, auto& ar) {
    ar.Io(SparseSeq(f, kSize, "dist count", &SparseRecord::dist));
    ar.Io(SparseSeq(f, kSize, "weight count", &SparseRecord::weight));
    ar.Io(SparseSeq(w, kSize, "record count"));
  };
  ByteWriter dense_writer;
  dense_writer.Io(dists);
  dense_writer.Io(weights);
  dense_writer.Io(records);
  ByteWriter sparse_writer;
  sparse(fields, wholes, sparse_writer);
  EXPECT_EQ(sparse_writer.bytes(), dense_writer.bytes());

  SchemaDigest dense_digest;
  dense_digest.Io(dists);
  dense_digest.Io(weights);
  dense_digest.Io(records);
  SchemaDigest sparse_digest;
  sparse(fields, wholes, sparse_digest);
  EXPECT_EQ(sparse_digest.value(), dense_digest.value());

  // Loading creates exactly the records that had a non-default element,
  // and re-saves to the same bytes.
  std::map<int, SparseRecord> loaded_fields;
  std::map<int, SparseRecord> loaded_wholes;
  ByteReader reader(dense_writer.bytes());
  sparse(loaded_fields, loaded_wholes, reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(loaded_fields, fields);
  EXPECT_TRUE(std::signbit(loaded_fields.at(4).weight));
  EXPECT_EQ(loaded_wholes, wholes);
  ByteWriter again;
  sparse(loaded_fields, loaded_wholes, again);
  EXPECT_EQ(again.bytes(), dense_writer.bytes());
}

TEST(SerialTest, SparseSeqOverwritesHeldRecordsAndRejectsAWrongCount) {
  ByteWriter writer;
  writer.Io(std::vector<double>{0.0, 5.0, 0.0});
  // A record the stream says is default is overwritten, not kept stale.
  std::map<int, SparseRecord> records;
  records[0].weight = 9.0;
  ByteReader reader(writer.bytes());
  reader.Io(SparseSeq(records, 3, "weight count", &SparseRecord::weight));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(records.at(0).weight, 0.0);
  EXPECT_EQ(records.at(1).weight, 5.0);
  EXPECT_EQ(records.count(2), 0u);

  std::map<int, SparseRecord> wrong;
  ByteReader short_reader(writer.bytes());
  short_reader.Io(SparseSeq(wrong, 4, "weight count", &SparseRecord::weight));
  EXPECT_FALSE(short_reader.ok());
  EXPECT_EQ(short_reader.status().message(), "weight count");
  EXPECT_TRUE(wrong.empty());
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
