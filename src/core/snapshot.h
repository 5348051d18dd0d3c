// Crash-safe run snapshots: durable checkpoint/resume with bit-identical
// continuation.
//
// A snapshot is one file holding everything a run needs to continue exactly
// where it stopped: the server model, every client's model/optimizer/RNG,
// the DRL policy (actor/critic/targets, Adam moments, prioritized replay
// incl. sum-tree priorities), all RNG streams, budget/traffic/fault state
// and the metric history. The container framing is
//
//   [u32 magic "FSNP"][u32 version][u64 payload_size][payload][u32 crc32]
//
// little-endian, with the CRC covering every byte before it. Readers
// validate size, magic, version, length and CRC before any trainer state is
// touched, so a torn, truncated or bit-flipped file degrades into a clean
// Status error and the previous snapshot (kept by rotation) takes over.
//
// Files are published atomically (tmp + fsync + rename, util/file.h): a
// crash mid-write can never corrupt an already-published snapshot.
//
// Resume contract: run A (uninterrupted) and run B (killed at any epoch
// boundary, restarted from the newest valid snapshot) produce bit-identical
// final models, metric histories and replay-buffer contents. See
// tests/core/snapshot_test.cc for the kill-and-resume harness.

#ifndef FEDMIGR_CORE_SNAPSHOT_H_
#define FEDMIGR_CORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "fl/trainer.h"
#include "util/status.h"

namespace fedmigr::core {

// --- Container framing (exposed for the corruption fuzz tests) ----------

// Wraps a payload in the FSNP frame.
std::vector<uint8_t> FrameSnapshot(const std::vector<uint8_t>& payload);

// Validates the frame and returns the payload. Never crashes on malformed
// input: truncation, bad magic, bad version, length mismatch and CRC
// mismatch all come back as Status errors.
util::Result<std::vector<uint8_t>> UnframeSnapshot(
    const std::vector<uint8_t>& framed);

// Frame + atomic write / read + unframe.
util::Status WriteSnapshotFile(const std::string& path,
                               const std::vector<uint8_t>& payload);
util::Result<std::vector<uint8_t>> ReadSnapshotFile(const std::string& path);

// --- Snapshot cadence and rotation ---------------------------------------

struct SnapshotOptions {
  // Empty disables snapshotting entirely.
  std::string directory;
  // Save every N completed epochs (and always on interrupt).
  int every_epochs = 1;
  // Snapshots retained; older ones are removed after a successful publish.
  // Keeping >= 2 gives a last-good fallback if the newest file is damaged
  // by the filesystem after publish.
  int keep = 2;
};

class SnapshotManager {
 public:
  explicit SnapshotManager(SnapshotOptions options);

  bool enabled() const { return !options_.directory.empty(); }
  const SnapshotOptions& options() const { return options_; }

  // Serializes the trainer and atomically publishes snap-NNNNNN.fsnp for
  // `epoch`, then rotates old snapshots down to `keep`. Rotation works from
  // the epochs this manager has published, seeded by one directory listing
  // on the first save so an earlier process's snapshots rotate too.
  util::Status Save(const fl::Trainer& trainer, int epoch);

  // Cadence wrapper for the trainer's epoch hook.
  util::Status MaybeSave(const fl::Trainer& trainer, int epoch);

  // Snapshot files in the directory, full paths, newest epoch first.
  std::vector<std::string> ListSnapshots() const;

  // Restores `trainer` from the newest snapshot that both unframes and
  // loads cleanly, skipping damaged ones (last-good fallback). Returns the
  // epoch the restored snapshot was taken after, or 0 when no usable
  // snapshot exists (fresh start).
  util::Result<int> Resume(fl::Trainer* trainer) const;

 private:
  // (epoch, path) of every snapshot file in the directory, newest first.
  using Listing = std::vector<std::pair<int, std::string>>;
  Listing ListEpochs() const;
  std::string PathForEpoch(int epoch) const;

  SnapshotOptions options_;
  // The directory's snapshots as this manager last left them, newest
  // first; valid once the first save has listed the directory.
  Listing published_;
  bool listed_ = false;
};

// --- Interrupt handling ---------------------------------------------------

// Installs SIGINT/SIGTERM handlers that set an atomic flag (the handler
// does nothing else — serialization happens on the run thread at the next
// epoch boundary). Idempotent.
void InstallInterruptHandlers();
// True once a handled signal arrived (or RequestInterrupt was called).
bool InterruptRequested();
// Programmatic equivalents, used by tests to model a kill.
void RequestInterrupt();
void ClearInterrupt();

// --- RunScheme wiring -----------------------------------------------------

struct RunControl {
  SnapshotOptions snapshot;  // empty directory = no snapshots
  // Resume from the newest valid snapshot in snapshot.directory (fresh
  // start when none is usable).
  bool resume = false;
  // Install SIGINT/SIGTERM handlers; on interrupt the run stops at the next
  // epoch boundary after flushing a final snapshot, and the returned
  // RunResult has `interrupted` set.
  bool handle_signals = false;
  // When non-null, receives the epoch resumed from (0 = fresh start).
  int* resumed_from_epoch = nullptr;
  // Optional flight recorder (obs/journal.h). RunScheme attaches it with
  // the resumed-from epoch — truncating journal chunks the resumed run will
  // replay — and installs it into the trainer, so a killed-and-resumed run
  // produces a byte-equal journal. Non-owning; must outlive the call.
  obs::Journal* journal = nullptr;
};

// RunScheme with crash-safety: auto-resume, cadence snapshots and a final
// snapshot on interrupt. With a default RunControl this is exactly the
// plain RunScheme.
fl::RunResult RunScheme(const Workload& workload, fl::SchemeSetup setup,
                        const RunControl& control);

}  // namespace fedmigr::core

#endif  // FEDMIGR_CORE_SNAPSHOT_H_
