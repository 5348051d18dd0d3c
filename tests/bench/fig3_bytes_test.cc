// The Fig. 3 exhibit's bytes, machine-checked: bench_fig3_strategies'
// stdout must hash to the SHA-256 recorded for the byte family of the GEMM
// kernel in use (nn::GemmByteFamily; avx512+fma and avx2+fma are "fused").
// Any float that moves in nn, fl or net moves this hash, so a change that
// is meant to keep behaviour frozen proves it here rather than by quoting
// the hash by hand. A deliberate float change re-records both rows
// (DESIGN §15).
//
// Built only for the plain Release configuration: the sanitizer presets and
// -march=native builds may round differently and take minutes to run it.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/gemm.h"
#include "nn/tensor_helpers.h"

namespace fedmigr {
namespace {

struct Row {
  const char* family;  // nn::GemmByteFamily()
  const char* sha256;
};

constexpr Row kRows[] = {
    {"fused",
     "10225d69ce6ecc5bb2cf7b070d3afb338d672deacffb1e68922d59db6d7877ae"},
    {"portable",
     "e3ab7fc337a15db37c5aa5844a6455cdadbd3427d0747fcbfbd4db131a13dc5c"},
};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// FIPS 180-4 SHA-256 of `data`, as lowercase hex.
std::string Sha256Hex(const std::string& data) {
  static constexpr uint32_t kK[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::vector<uint8_t> msg(data.begin(), data.end());
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  for (int i = 7; i >= 0; --i) msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  for (size_t block = 0; block < msg.size(); block += 64) {
    uint32_t w[64];
    for (int t = 0; t < 16; ++t) {
      const uint8_t* p = &msg[block + 4 * static_cast<size_t>(t)];
      w[t] = (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
             (uint32_t{p[2]} << 8) | uint32_t{p[3]};
    }
    for (int t = 16; t < 64; ++t) {
      const uint32_t s0 =
          Rotr(w[t - 15], 7) ^ Rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[t - 2], 17) ^ Rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t v[8];
    std::memcpy(v, h, sizeof(v));
    for (int t = 0; t < 64; ++t) {
      const uint32_t s1 = Rotr(v[4], 6) ^ Rotr(v[4], 11) ^ Rotr(v[4], 25);
      const uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      const uint32_t t1 = v[7] + s1 + ch + kK[t] + w[t];
      const uint32_t s0 = Rotr(v[0], 2) ^ Rotr(v[0], 13) ^ Rotr(v[0], 22);
      const uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      std::memmove(v + 1, v, 7 * sizeof(uint32_t));
      v[4] += t1;
      v[0] = t1 + s0 + maj;
    }
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }
  std::string hex;
  for (uint32_t word : h) {
    char buffer[9];
    std::snprintf(buffer, sizeof(buffer), "%08x", word);
    hex += buffer;
  }
  return hex;
}

TEST(Fig3BytesTest, Sha256OfKnownInputs) {
  EXPECT_EQ(Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two padding blocks.
  EXPECT_EQ(Sha256Hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Fig3BytesTest, StdoutSha256MatchesTheKernelRow) {
  const std::string kernel = nn::GemmKernelName();
  const std::string family = nn::GemmByteFamily();
  const Row* row = nullptr;
  for (const Row& candidate : kRows) {
    if (family == candidate.family) row = &candidate;
  }
  ASSERT_NE(row, nullptr) << "no fig3 row for GEMM kernel " << kernel;

  FILE* pipe = popen(FEDMIGR_FIG3_BENCH, "r");
  ASSERT_NE(pipe, nullptr) << "cannot start " << FEDMIGR_FIG3_BENCH;
  std::string stdout_bytes;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    stdout_bytes.append(buffer, n);
  }
  ASSERT_EQ(pclose(pipe), 0) << FEDMIGR_FIG3_BENCH << " failed";
  EXPECT_EQ(Sha256Hex(stdout_bytes), row->sha256)
      << "bench_fig3_strategies stdout (" << stdout_bytes.size()
      << " bytes, kernel " << kernel << ") moved:\n"
      << stdout_bytes;
}

}  // namespace
}  // namespace fedmigr
