// The checksummed frame of run snapshots (core/snapshot) and journal chunks
// (obs/journal):
//
//   [u32 magic][u32 version][u64 payload_size][payload][u32 crc32]
//
// little-endian, with the CRC covering every byte before it. A frame is
// built in one buffer: BeginFrame writes the header, the caller writes the
// payload into the same writer, and SealFrame patches the payload size and
// appends the CRC, so a payload is never copied to be framed.

#ifndef FEDMIGR_UTIL_FRAME_H_
#define FEDMIGR_UTIL_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/serial.h"

namespace fedmigr::util {

// magic + version + payload_size before the payload, crc32 after it.
inline constexpr size_t kFrameHeaderSize = 4 + 4 + 8;
inline constexpr size_t kFrameOverhead = kFrameHeaderSize + 4;

// Starts a frame in the empty `writer`, with room reserved for
// `payload_hint` payload bytes and the CRC.
void BeginFrame(uint32_t magic, uint32_t version, size_t payload_hint,
                ByteWriter* writer);

// Ends the frame BeginFrame started in `writer` and returns its bytes.
std::vector<uint8_t> SealFrame(ByteWriter* writer);

}  // namespace fedmigr::util

#endif  // FEDMIGR_UTIL_FRAME_H_
