#include "util/crc32.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fedmigr::util {
namespace {

TEST(Crc32Test, EmptyInputIsZero) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, KnownCheckValue) {
  // The CRC-32/ISO-HDLC check value: crc32("123456789") = 0xCBF43926.
  const std::string input = "123456789";
  EXPECT_EQ(Crc32(input.data(), input.size()), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string input = "the quick brown fox jumps over the lazy dog";
  const uint32_t one_shot = Crc32(input.data(), input.size());
  for (size_t split = 0; split <= input.size(); ++split) {
    const uint32_t partial = Crc32(input.data(), split);
    const uint32_t full =
        Crc32(input.data() + split, input.size() - split, partial);
    EXPECT_EQ(full, one_shot) << "split at " << split;
  }
}

TEST(Crc32Test, SingleBitFlipChangesChecksum) {
  std::vector<uint8_t> data(257);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint32_t baseline = Crc32(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 17) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32(data.data(), data.size()), baseline)
          << "flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<uint8_t>(1 << bit);
    }
  }
}

// The table-driven CRC must equal the textbook bit-at-a-time definition
// at every alignment and across every tail length, in one call and split
// at an unaligned point.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryOffsetAndLength) {
  std::vector<uint8_t> buffer(4097 + 16);
  uint32_t state = 12345;
  for (uint8_t& b : buffer) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(state >> 24);
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4097);
  for (size_t offset = 0; offset <= 8; ++offset) {
    for (size_t n : lengths) {
      const uint8_t* p = buffer.data() + offset;
      const uint32_t want = BitwiseCrc32(p, n);
      EXPECT_EQ(Crc32(p, n), want) << "offset " << offset << " length " << n;
      const size_t split = n / 3;
      EXPECT_EQ(Crc32(p + split, n - split, Crc32(p, split)), want)
          << "offset " << offset << " length " << n << " split " << split;
    }
  }
}

TEST(Crc32Test, DistinguishesPermutations) {
  const std::string a = "abcd";
  const std::string b = "abdc";
  EXPECT_NE(Crc32(a.data(), a.size()), Crc32(b.data(), b.size()));
}

}  // namespace
}  // namespace fedmigr::util
