#include "nn/serialize.h"

#include <cmath>
#include <cstring>

#include "util/crc32.h"

namespace fedmigr::nn {

namespace {

// "FMGR" little-endian.
constexpr uint32_t kMagic = 0x52474D46u;
constexpr uint32_t kFormatVersion = 2;
// magic + version + count.
constexpr size_t kV2HeaderSize = 2 * sizeof(uint32_t) + sizeof(uint64_t);
constexpr size_t kV2FrameOverhead = kV2HeaderSize + sizeof(uint32_t);

template <typename T>
T ReadLe(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Ingest gate shared by both wire formats: a single NaN coordinate entering
// an aggregation would turn the whole mean non-finite, permanently, and a
// CRC only proves the NaN arrived intact. Snapshot restore (IoParams and
// Tensor::Visit) is deliberately not gated — it replays whatever state was
// saved.
util::Status CheckPayloadFinite(const std::vector<float>& flat) {
  for (float v : flat) {
    if (!std::isfinite(v)) {
      return util::Status::DataLoss("non-finite parameter in payload");
    }
  }
  return util::Status::Ok();
}

// Legacy v1 framing: [uint64 count][count * float32].
util::Status DeserializeV1(const std::vector<uint8_t>& bytes,
                           Sequential* model) {
  if (bytes.size() < sizeof(uint64_t)) {
    return util::Status::InvalidArgument("buffer too small for header");
  }
  const uint64_t count = ReadLe<uint64_t>(bytes.data());
  if (count > (bytes.size() - sizeof(uint64_t)) / sizeof(float) ||
      bytes.size() != sizeof(uint64_t) + count * sizeof(float)) {
    return util::Status::InvalidArgument("buffer size does not match header");
  }
  std::vector<float> flat(count);
  std::memcpy(flat.data(), bytes.data() + sizeof(uint64_t),
              count * sizeof(float));
  FEDMIGR_RETURN_IF_ERROR(CheckPayloadFinite(flat));
  return UnflattenParams(flat, model);
}

}  // namespace

std::vector<float> FlattenParams(const Sequential& model) {
  std::vector<float> flat;
  flat.reserve(static_cast<size_t>(model.NumParams()));
  for (const Tensor* p : model.Params()) {
    flat.insert(flat.end(), p->data(), p->data() + p->size());
  }
  return flat;
}

util::Status UnflattenParams(const std::vector<float>& flat,
                             Sequential* model) {
  if (static_cast<int64_t>(flat.size()) != model->NumParams()) {
    return util::Status::InvalidArgument(
        "parameter count mismatch: got " + std::to_string(flat.size()) +
        ", model has " + std::to_string(model->NumParams()));
  }
  size_t offset = 0;
  for (Tensor* p : model->Params()) {
    std::memcpy(p->data(), flat.data() + offset,
                static_cast<size_t>(p->size()) * sizeof(float));
    offset += static_cast<size_t>(p->size());
  }
  return util::Status::Ok();
}

std::vector<uint8_t> SerializeParams(const Sequential& model) {
  const std::vector<float> flat = FlattenParams(model);
  const uint64_t count = flat.size();
  std::vector<uint8_t> bytes(kV2FrameOverhead + flat.size() * sizeof(float));
  uint8_t* p = bytes.data();
  std::memcpy(p, &kMagic, sizeof(uint32_t));
  std::memcpy(p + sizeof(uint32_t), &kFormatVersion, sizeof(uint32_t));
  std::memcpy(p + 2 * sizeof(uint32_t), &count, sizeof(uint64_t));
  std::memcpy(p + kV2HeaderSize, flat.data(), flat.size() * sizeof(float));
  const uint32_t crc =
      util::Crc32(p, kV2HeaderSize + flat.size() * sizeof(float));
  std::memcpy(p + kV2HeaderSize + flat.size() * sizeof(float), &crc,
              sizeof(uint32_t));
  return bytes;
}

util::Status DeserializeParams(const std::vector<uint8_t>& bytes,
                               Sequential* model) {
  if (bytes.empty()) {
    return util::Status::InvalidArgument("empty buffer");
  }
  if (bytes.size() < kV2FrameOverhead ||
      ReadLe<uint32_t>(bytes.data()) != kMagic) {
    // Not a v2 frame; try the legacy unframed encoding.
    return DeserializeV1(bytes, model);
  }
  const uint32_t version = ReadLe<uint32_t>(bytes.data() + sizeof(uint32_t));
  if (version != kFormatVersion) {
    return util::Status::InvalidArgument(
        "unsupported parameter format version " + std::to_string(version));
  }
  const uint64_t count = ReadLe<uint64_t>(bytes.data() + 2 * sizeof(uint32_t));
  if (count > (bytes.size() - kV2FrameOverhead) / sizeof(float) ||
      bytes.size() != kV2FrameOverhead + count * sizeof(float)) {
    return util::Status::InvalidArgument("buffer size does not match header");
  }
  const size_t checked_size = kV2HeaderSize + count * sizeof(float);
  const uint32_t stored_crc = ReadLe<uint32_t>(bytes.data() + checked_size);
  const uint32_t actual_crc = util::Crc32(bytes.data(), checked_size);
  if (stored_crc != actual_crc) {
    return util::Status::DataLoss("parameter payload checksum mismatch");
  }
  std::vector<float> flat(count);
  std::memcpy(flat.data(), bytes.data() + kV2HeaderSize,
              count * sizeof(float));
  FEDMIGR_RETURN_IF_ERROR(CheckPayloadFinite(flat));
  return UnflattenParams(flat, model);
}

}  // namespace fedmigr::nn
