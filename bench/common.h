// Shared configuration for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the FedMigr paper
// on the synthetic workloads (see DESIGN.md for the substitution table).
// The knobs here are the calibrated operating point at which the synthetic
// system reproduces the paper's qualitative shapes within seconds-scale
// runs: weak class signal (so federated averaging under label skew is
// genuinely hard), small batches (real client drift per epoch), aggregation
// every 5 epochs with migrations in between.

#ifndef FEDMIGR_BENCH_COMMON_H_
#define FEDMIGR_BENCH_COMMON_H_

#include <string>

#include "core/experiment.h"
#include "core/fedmigr.h"
#include "core/snapshot.h"
#include "dp/gaussian.h"
#include "fl/robust.h"
#include "fl/schemes.h"
#include "net/budget.h"
#include "net/fault.h"

namespace fedmigr::bench {

struct BenchWorkloadOptions {
  std::string dataset = "c10";
  core::PartitionKind partition = core::PartitionKind::kLanShard;
  double partition_param = 0.0;
  int num_clients = 10;
  int num_lans = 3;
  int train_per_class = 60;
  double signal = 0.35;  // class-prototype scale (task difficulty)
  uint64_t seed = 5;
};

core::Workload MakeBenchWorkload(const BenchWorkloadOptions& options);

struct BenchRunOptions {
  int max_epochs = 120;
  int agg_period = 5;  // M + 1 for the migration schemes
  double learning_rate = 0.05;
  int batch_size = 16;
  int eval_every = 20;
  double target_accuracy = -1.0;
  net::Budget budget;
  dp::DpConfig dp;
  // Fault model for the run (default: disabled, the fault-free path).
  net::FaultConfig fault;
  // Robustness layer (default: inert, the legacy bit-identical path).
  fl::RobustConfig robust;
  // Cohort scheduling: activate `cohort_size` clients per round (0 = all,
  // the legacy full-participation path). See TrainerConfig::cohort_size.
  int cohort_size = 0;
  // Round-progress watchdog quorum (0 = disabled). See
  // TrainerConfig::quorum_fraction.
  double quorum_fraction = 0.0;
  uint64_t seed = 1;
};

// Scheme names: fedavg | fedprox | fedswap | randmigr | fedmigr |
// fedmigr-flmm | maxemd | crosslan | withinlan | randonly (random migration
// policy, used by Fig. 3 where all three strategies share the same loop).
fl::SchemeSetup MakeBenchScheme(const std::string& name,
                                const core::Workload& workload,
                                const BenchRunOptions& options);

// Builds the scheme and runs it on the workload.
fl::RunResult RunBench(const core::Workload& workload,
                       const std::string& scheme,
                       const BenchRunOptions& options);

// Crash-safety flags shared by the bench binaries:
//   --snapshot-dir=DIR   durable run snapshots under DIR (empty = off)
//   --snapshot-every=N   snapshot cadence in completed epochs (default 1)
//   --snapshot-keep=N    snapshots retained per run (default 2)
//   --resume             continue from the newest valid snapshot
// Unrecognized arguments are ignored, so binaries can layer their own.
struct SnapshotFlags {
  std::string directory;
  int every_epochs = 1;
  int keep = 2;
  bool resume = false;
  bool enabled() const { return !directory.empty(); }
};

SnapshotFlags ParseSnapshotFlags(int argc, char** argv);

// The RunControl for one named run. Snapshots land in
// <flags.directory>/<run_name>/ so runs in one bench don't collide, and
// SIGINT/SIGTERM flush a final snapshot before stopping.
core::RunControl MakeRunControl(const SnapshotFlags& flags,
                                const std::string& run_name);

// RunBench with crash-safety. The run name is "<scheme>-s<seed>"; binaries
// that launch several runs per (scheme, seed) pair should build their own
// RunControl via MakeRunControl with a distinguishing name instead.
fl::RunResult RunBench(const core::Workload& workload,
                       const std::string& scheme,
                       const BenchRunOptions& options,
                       const SnapshotFlags& flags);

// Flight-recorder flags shared by the bench binaries:
//   --journal-out=DIR    record an event journal per run (obs/journal.h)
//                        under DIR/<run_name>.fjrn
//   --journal-sample=F   client-detail sampling rate in [0, 1] (default 1;
//                        reconciliation event kinds are never sampled)
// Journals are file outputs only — tables on stdout stay byte-identical.
struct JournalFlags {
  std::string directory;
  double sample_rate = 1.0;
  bool enabled() const { return !directory.empty(); }
  // Journal file path for one named run; empty when disabled.
  std::string PathFor(const std::string& run_name) const;
};

JournalFlags ParseJournalFlags(int argc, char** argv);

// RunBench with crash-safety and an optional flight recorder: the journal
// is attached with the resumed-from epoch (so --resume replays to a
// byte-equal journal) and written to journal_flags.PathFor(run_name). The
// run name defaults to "<scheme>-s<seed>"; binaries that launch several
// runs per (scheme, seed) pair use RunBenchNamed with a distinguishing
// name, exactly like MakeRunControl.
fl::RunResult RunBench(const core::Workload& workload,
                       const std::string& scheme,
                       const BenchRunOptions& options,
                       const SnapshotFlags& snapshot_flags,
                       const JournalFlags& journal_flags);
fl::RunResult RunBenchNamed(const core::Workload& workload,
                            const std::string& scheme,
                            const BenchRunOptions& options,
                            const SnapshotFlags& snapshot_flags,
                            const JournalFlags& journal_flags,
                            const std::string& run_name);

// Telemetry flags shared by the bench binaries:
//   --metrics-out=PATH  write a registry snapshot (JSON; .csv extension
//                       switches to CSV) when the bench finishes
//   --trace-out=PATH    record a Chrome trace for the whole run and write
//                       it at exit (open in Perfetto / chrome://tracing)
//   --log-level=LEVEL   debug | info | warning | error
// Nothing is printed to stdout, so instrumented runs keep byte-identical
// tables.
struct TelemetryFlags {
  std::string metrics_out;
  std::string trace_out;
};

TelemetryFlags ParseTelemetryFlags(int argc, char** argv);

// Robustness flags shared by the bench binaries:
//   --attack-mode=M      none | sign-flip | gaussian | scale | silent | nan
//   --attack-frac=F      fraction of clients Byzantine (persistent set)
//   --attack-scale=S     noise stddev / scale multiplier (default 8)
//   --aggregator=A       mean | trimmed-mean | median | krum | multi-krum
//   --robust-profile=P   off | screen | defense: sets screening and
//                        reputation only; the aggregator comes from
//                        --aggregator (default mean) in either flag order
// With none of these present `any` stays false and ApplyTo is a no-op, so
// existing bench tables remain byte-identical.
struct RobustFlags {
  net::AttackMode attack_mode = net::AttackMode::kNone;
  double attack_fraction = 0.0;
  double attack_scale = 8.0;
  fl::RobustConfig robust;
  bool any = false;

  void ApplyTo(BenchRunOptions* options) const;
};

RobustFlags ParseRobustFlags(int argc, char** argv);

// Applies --log-level and starts the trace recorder if --trace-out was
// given. Call once before the timed work.
void BeginTelemetry(const TelemetryFlags& flags);

// Writes the metrics/trace files requested by `flags` (logging any write
// failure) and stops the recorder.
void FinishTelemetry(const TelemetryFlags& flags);

// "a -> b (-37%)" helper for change-vs-baseline cells.
std::string PercentChange(double baseline, double value);

}  // namespace fedmigr::bench

#endif  // FEDMIGR_BENCH_COMMON_H_
