#include "util/frame.h"

#include <array>
#include <cstring>
#include <span>

#include "util/crc32.h"

namespace fedmigr::util {

void BeginFrame(uint32_t magic, uint32_t version, size_t payload_hint,
                ByteWriter* writer) {
  // The header goes in as one fixed-size append (its payload size is
  // patched by SealFrame), so the writer's first growth has a known size.
  std::array<uint8_t, kFrameHeaderSize> header{};
  std::memcpy(header.data(), &magic, sizeof(magic));
  std::memcpy(header.data() + sizeof(magic), &version, sizeof(version));
  writer->Reserve(kFrameOverhead + payload_hint);
  writer->Io(std::span<const uint8_t>(header));
}

std::vector<uint8_t> SealFrame(ByteWriter* writer) {
  std::vector<uint8_t> framed = writer->TakeBytes();
  const uint64_t payload_size = framed.size() - kFrameHeaderSize;
  std::memcpy(framed.data() + kFrameHeaderSize - sizeof(payload_size),
              &payload_size, sizeof(payload_size));
  const uint32_t crc = Crc32(framed.data(), framed.size());
  const auto* p = reinterpret_cast<const uint8_t*>(&crc);
  framed.insert(framed.end(), p, p + sizeof(crc));
  return framed;
}

}  // namespace fedmigr::util
