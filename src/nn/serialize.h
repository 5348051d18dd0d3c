// Parameter (de)serialization.
//
// Model transfers in the simulator are charged by serialized byte size, and
// the DP module perturbs serialized parameter vectors; both go through the
// flat little-endian float encoding defined here.

#ifndef FEDMIGR_NN_SERIALIZE_H_
#define FEDMIGR_NN_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nn/sequential.h"
#include "util/serial.h"
#include "util/status.h"

namespace fedmigr::nn {

// Flattens all parameters into one float vector (stable layer order).
std::vector<float> FlattenParams(const Sequential& model);

// Writes a flat float vector back into the model's parameters. Fails if the
// element count does not match.
util::Status UnflattenParams(const std::vector<float>& flat,
                             Sequential* model);

// Byte-level encoding, format v2 with integrity framing:
//   [uint32 magic "FMGR"][uint32 version][uint64 count]
//   [count * float32 payload][uint32 crc32 of everything before it]
// A truncated or bit-flipped buffer fails the size or checksum test and is
// rejected with a Status (kDataLoss for checksum mismatches) instead of
// silently loading garbage. Both paths also reject payloads containing
// NaN/Inf coordinates (kDataLoss): a CRC only proves a NaN arrived intact,
// and one non-finite parameter entering an aggregation poisons the global
// model permanently. DeserializeParams also accepts the legacy v1 framing
// ([uint64 count][payload]) so old payloads keep loading.
// Simulated transfer sizes are metered by Sequential::ByteSize (raw
// parameter bytes), so the framing does not change traffic accounting.
std::vector<uint8_t> SerializeParams(const Sequential& model);
util::Status DeserializeParams(const std::vector<uint8_t>& bytes,
                               Sequential* model);

// Snapshot layout of a model's parameters (util/serial.h): a u64 count,
// then every parameter's floats in FlattenParams order, one span per
// tensor. Loading requires a model with the same parameter count. The
// schema digest sees one float run, whatever the architecture.
template <class Ar>
void IoParams(Ar& ar, Sequential* model) {
  if constexpr (Ar::kSchema) {
    std::vector<float> run;
    ar.Io(run);
  } else {
    const uint64_t expected = static_cast<uint64_t>(model->NumParams());
    uint64_t count = expected;
    ar.Io(count);
    ar.Check(count == expected, "parameter count mismatch");
    if (!ar.ok()) return;
    for (Tensor* p : model->Params()) {
      ar.Io(std::span<float>(p->data(), static_cast<size_t>(p->size())));
    }
  }
}

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_SERIALIZE_H_
