#include "core/snapshot.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <span>
#include <utility>

#include "obs/trace.h"
#include "util/crc32.h"
#include "util/file.h"
#include "util/frame.h"
#include "util/logging.h"
#include "util/serial.h"

namespace fedmigr::core {

namespace {

// "FSNP" read as a little-endian u32.
constexpr uint32_t kSnapshotMagic = 0x504E5346u;
constexpr uint32_t kSnapshotVersion = 1;

constexpr char kSnapshotPrefix[] = "snap-";
constexpr char kSnapshotSuffix[] = ".fsnp";

}  // namespace

std::vector<uint8_t> FrameSnapshot(const std::vector<uint8_t>& payload) {
  util::ByteWriter writer;
  util::BeginFrame(kSnapshotMagic, kSnapshotVersion, payload.size(), &writer);
  writer.Io(std::span<const uint8_t>(payload));
  return util::SealFrame(&writer);
}

util::Result<std::vector<uint8_t>> UnframeSnapshot(
    const std::vector<uint8_t>& framed) {
  if (framed.size() < util::kFrameOverhead) {
    return util::Status::DataLoss("snapshot truncated below frame size");
  }
  util::ByteReader reader(framed);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  reader.Io(magic);
  reader.Io(version);
  reader.Io(payload_size);
  FEDMIGR_RETURN_IF_ERROR(reader.status());
  if (magic != kSnapshotMagic) {
    return util::Status::DataLoss("snapshot magic mismatch");
  }
  if (version != kSnapshotVersion) {
    return util::Status::InvalidArgument("unsupported snapshot version");
  }
  if (payload_size != framed.size() - util::kFrameOverhead) {
    return util::Status::DataLoss("snapshot payload length mismatch");
  }
  const size_t checked =
      util::kFrameHeaderSize + static_cast<size_t>(payload_size);
  const uint32_t expected = util::Crc32(framed.data(), checked);
  uint32_t stored = 0;
  std::memcpy(&stored, framed.data() + checked, sizeof(stored));
  if (stored != expected) {
    return util::Status::DataLoss("snapshot checksum mismatch");
  }
  return std::vector<uint8_t>(framed.begin() + util::kFrameHeaderSize,
                              framed.begin() + checked);
}

util::Status WriteSnapshotFile(const std::string& path,
                               const std::vector<uint8_t>& payload) {
  return util::AtomicWriteFile(path, FrameSnapshot(payload));
}

util::Result<std::vector<uint8_t>> ReadSnapshotFile(const std::string& path) {
  util::Result<std::vector<uint8_t>> bytes = util::ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return UnframeSnapshot(*bytes);
}

// --- SnapshotManager ------------------------------------------------------

SnapshotManager::SnapshotManager(SnapshotOptions options)
    : options_(std::move(options)) {
  if (options_.every_epochs < 1) options_.every_epochs = 1;
  if (options_.keep < 1) options_.keep = 1;
}

std::string SnapshotManager::PathForEpoch(int epoch) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06d%s", kSnapshotPrefix, epoch,
                kSnapshotSuffix);
  return options_.directory + "/" + name;
}

namespace {

// Parses "snap-NNNNNN.fsnp" into the epoch; -1 for anything else.
int EpochFromName(const std::string& name) {
  const size_t prefix = sizeof(kSnapshotPrefix) - 1;
  const size_t suffix = sizeof(kSnapshotSuffix) - 1;
  if (name.size() <= prefix + suffix) return -1;
  if (name.compare(0, prefix, kSnapshotPrefix) != 0) return -1;
  if (name.compare(name.size() - suffix, suffix, kSnapshotSuffix) != 0) {
    return -1;
  }
  int epoch = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    if (epoch > 100000000) return -1;
    epoch = epoch * 10 + (name[i] - '0');
  }
  return epoch;
}

}  // namespace

SnapshotManager::Listing SnapshotManager::ListEpochs() const {
  Listing found;
  util::Result<std::vector<std::string>> names =
      util::ListDirectory(options_.directory);
  if (!names.ok()) return {};
  for (const std::string& name : *names) {
    const int epoch = EpochFromName(name);
    if (epoch >= 0) found.emplace_back(epoch, options_.directory + "/" + name);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

std::vector<std::string> SnapshotManager::ListSnapshots() const {
  std::vector<std::string> paths;
  for (auto& [epoch, path] : ListEpochs()) paths.push_back(std::move(path));
  return paths;
}

util::Status SnapshotManager::Save(const fl::Trainer& trainer, int epoch) {
  if (!enabled()) return util::Status::Ok();
  FEDMIGR_RETURN_IF_ERROR(util::MakeDirectories(options_.directory));
  std::vector<uint8_t> framed;
  {
    FEDMIGR_TRACE_SCOPE("core/snapshot_build");
    // The state is written straight after the frame header, so the payload
    // is never copied into a second buffer to be framed.
    util::ByteWriter writer;
    util::BeginFrame(kSnapshotMagic, kSnapshotVersion, 0, &writer);
    trainer.SaveState(&writer);
    framed = util::SealFrame(&writer);
  }
  FEDMIGR_TRACE_SCOPE("core/snapshot_publish");
  FEDMIGR_RETURN_IF_ERROR(util::AtomicWriteFile(PathForEpoch(epoch), framed));
  // Rotation runs only after a successful publish, so a failed save never
  // costs an older good snapshot. The directory is listed once; after that
  // the manager knows what it published, and a re-save of an epoch is
  // still one file.
  if (!listed_) {
    published_ = ListEpochs();
    listed_ = true;
  } else {
    const auto at = std::find_if(
        published_.begin(), published_.end(),
        [epoch](const auto& entry) { return entry.first <= epoch; });
    if (at == published_.end() || at->first != epoch) {
      published_.emplace(at, epoch, PathForEpoch(epoch));
    }
  }
  const size_t keep = static_cast<size_t>(options_.keep);
  for (size_t i = keep; i < published_.size(); ++i) {
    const util::Status removed = util::RemoveFile(published_[i].second);
    if (!removed.ok()) {
      FEDMIGR_LOG(kWarning) << "snapshot rotation: " << removed.ToString();
    }
  }
  if (published_.size() > keep) published_.resize(keep);
  return util::Status::Ok();
}

util::Status SnapshotManager::MaybeSave(const fl::Trainer& trainer,
                                        int epoch) {
  if (!enabled()) return util::Status::Ok();
  if (epoch % options_.every_epochs != 0) return util::Status::Ok();
  return Save(trainer, epoch);
}

util::Result<int> SnapshotManager::Resume(fl::Trainer* trainer) const {
  if (!enabled()) return 0;
  for (const std::string& path : ListSnapshots()) {
    util::Result<std::vector<uint8_t>> payload = ReadSnapshotFile(path);
    if (!payload.ok()) {
      FEDMIGR_LOG(kWarning) << "skipping snapshot " << path << ": "
                            << payload.status().ToString();
      continue;
    }
    util::ByteReader reader(*payload);
    const util::Status loaded = trainer->LoadState(&reader);
    if (!loaded.ok()) {
      FEDMIGR_LOG(kWarning) << "skipping snapshot " << path << ": "
                            << loaded.ToString();
      continue;
    }
    return trainer->next_epoch() - 1;
  }
  return 0;
}

// --- Interrupt handling ---------------------------------------------------

namespace {

// The only cross-thread state in the snapshot subsystem (the flush itself
// always runs on the run thread). Release on store / acquire on load: when
// a non-signal thread calls RequestInterrupt() after preparing state for
// the run thread to observe, the flag carries the happens-before edge.
// The signal-handler path needs none of that — it just requires the
// lock-free store, which std::atomic<bool> guarantees on every platform
// we build for (checked in tests/core/snapshot_race_test.cc under TSan).
std::atomic<bool> g_interrupted{false};

// Async-signal-safe: only a lock-free atomic store; the snapshot flush
// happens on the run thread at the next epoch boundary.
void HandleSignal(int /*signum*/) {
  g_interrupted.store(true, std::memory_order_release);
}

}  // namespace

void InstallInterruptHandlers() {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
}

bool InterruptRequested() {
  return g_interrupted.load(std::memory_order_acquire);
}

void RequestInterrupt() {
  g_interrupted.store(true, std::memory_order_release);
}

void ClearInterrupt() {
  g_interrupted.store(false, std::memory_order_release);
}

// --- RunScheme wiring -----------------------------------------------------

fl::RunResult RunScheme(const Workload& workload, fl::SchemeSetup setup,
                        const RunControl& control) {
  fl::Trainer trainer(setup.config, &workload.data.train, workload.partition,
                      &workload.data.test, workload.topology,
                      workload.devices, workload.model_factory,
                      std::move(setup.policy));
  SnapshotManager manager(control.snapshot);

  int resumed_from = 0;
  if (control.resume && manager.enabled()) {
    util::Result<int> resumed = manager.Resume(&trainer);
    if (resumed.ok()) {
      resumed_from = *resumed;
      if (resumed_from > 0) {
        FEDMIGR_LOG(kInfo) << "resumed " << setup.config.scheme_name
                           << " from snapshot after epoch " << resumed_from;
      }
    }
  }
  if (control.resumed_from_epoch != nullptr) {
    *control.resumed_from_epoch = resumed_from;
  }

  if (control.journal != nullptr) {
    // Attach AFTER the resume decision: the journal keeps exactly the
    // chunks of epochs the restored trainer will not replay.
    if (!control.journal->attached()) {
      const util::Status attached = control.journal->Attach(resumed_from);
      FEDMIGR_CHECK(attached.ok())
          << "journal attach failed: " << attached.ToString();
    }
    trainer.SetJournal(control.journal);
  }

  if (control.handle_signals) InstallInterruptHandlers();

  if (manager.enabled() || control.handle_signals) {
    trainer.SetEpochHook([&manager, &control](const fl::Trainer& t,
                                              int epoch) {
      const bool stop = control.handle_signals && InterruptRequested();
      // On interrupt the cadence is overridden: the final state always gets
      // flushed so the restart loses no completed work.
      const util::Status saved =
          stop ? manager.Save(t, epoch) : manager.MaybeSave(t, epoch);
      if (!saved.ok()) {
        FEDMIGR_LOG(kWarning) << "snapshot save failed: " << saved.ToString();
      }
      return !stop;
    });
  }
  return trainer.Run();
}

}  // namespace fedmigr::core
