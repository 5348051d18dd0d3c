#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace fedmigr::util {

namespace {

// tables[0] is the bytewise table: the CRC register after shifting one
// byte through it. tables[k][b] is the register after byte b followed by
// k zero bytes, so one lookup per byte of an 8-byte word, XORed together,
// advances the CRC by the whole word (slice-by-8).
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  static const Tables tables = MakeTables();
  const auto* bytes = static_cast<const uint8_t*>(data);
  crc = ~crc;
  // The word loop reads the CRC's first four bytes as the low half of a
  // little-endian word; elsewhere every byte takes the bytewise loop.
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; bytes += 8, size -= 8) {
      uint32_t lo, hi;
      std::memcpy(&lo, bytes, sizeof(lo));
      std::memcpy(&hi, bytes + 4, sizeof(hi));
      lo ^= crc;
      crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
            tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
            tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
            tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    }
  }
  for (size_t i = 0; i < size; ++i) {
    crc = tables[0][(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace fedmigr::util
