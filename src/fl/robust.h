// Byzantine-robust aggregation, update screening and client quarantine.
//
// Defense-in-depth between client uploads and the global model, motivated
// by FedMigr's unique exposure: a poisoned model is not just one bad term
// in one round's mean — it can be *migrated* C2C and trained on by honest
// clients, contaminating the whole lineage. Three layers:
//
//   1. Aggregator — pluggable aggregation rule. `Mean` is the weighted
//      FedAvg of Eq. 7 (the default); `TrimmedMean`, `CoordinateMedian`
//      and `Krum`/`MultiKrum` bound the influence of up to f adversarial
//      uploads at increasing cost in statistical efficiency.
//   2. Update screening — per-upload gate at ingest: non-finite rejection
//      (always on; one NaN coordinate would otherwise brick the mean
//      permanently), L2 clipping of the update delta, an adaptive norm
//      outlier test against the round median, and a cosine-similarity
//      anomaly score against the last aggregate.
//   3. Reputation — per-client state machine
//         healthy -> suspect -> quarantined -> rehabilitating -> healthy
//      fed by screening verdicts. Quarantined clients are masked out of
//      the DRL/FLMM action space (via the PR 1 crash-mask plumbing) and
//      excluded as migration sources *and* targets, which is what stops
//      lineage contamination.
//
// The all-defaults RobustConfig is inert: Mean aggregation, no screening
// beyond the non-finite gate, no reputation — plain FedAvg.
//
// RobustCounters is plain data. The screen bumps its outcome fields in
// place; the quarantine fields are folded from the trainer's event stream
// (obs/events.h): kClientUploaded{kExcludedQuarantined} and the
// kQuarantineTransition events the reputation machine's transition log
// turns into. The trainer publishes each field's per-epoch growth to the
// obs registry as an `fl/robust_*` counter.

#ifndef FEDMIGR_FL_ROBUST_H_
#define FEDMIGR_FL_ROBUST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.h"
#include "nn/sequential.h"
#include "obs/events.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/status.h"

namespace fedmigr::fl {

// ---------------------------------------------------------------------------
// Aggregators
// ---------------------------------------------------------------------------

enum class AggregatorKind {
  kMean = 0,
  kTrimmedMean,
  kCoordinateMedian,
  kKrum,
  kMultiKrum,
};

// "mean" | "trimmed-mean" | "median" | "krum" | "multi-krum".
bool ParseAggregatorKind(const std::string& name, AggregatorKind* kind);
const char* AggregatorKindName(AggregatorKind kind);

struct AggregatorOptions {
  // TrimmedMean: fraction trimmed from *each* end per coordinate; the
  // effective trim count is min(floor(trim_fraction * n), (n - 1) / 2).
  double trim_fraction = 0.2;
  // Krum/MultiKrum: assumed number of Byzantine uploads f. -1 derives the
  // largest f the selection tolerates, floor((n - 3) / 2).
  int assumed_attackers = -1;
  // MultiKrum: number of best-scoring uploads averaged.
  int multi_krum_m = 3;
};

// Aggregation rule: writes the aggregate of `models` into `out`. `weights`
// are per-model sample counts; Mean uses them (weighted FedAvg through
// WeightedMean), the robust rules deliberately ignore them — a sample
// count is attacker-controlled metadata, and weighting by it would hand a
// Byzantine client a free influence multiplier.
class Aggregator {
 public:
  virtual ~Aggregator() = default;
  virtual void Aggregate(const std::vector<const nn::Sequential*>& models,
                         const std::vector<double>& weights,
                         nn::Sequential* out) const = 0;
  virtual std::string name() const = 0;
};

std::unique_ptr<Aggregator> MakeAggregator(
    AggregatorKind kind, const AggregatorOptions& options = {});

// The weighted mean w = sum_k (n_k / N) w_k (Eq. 7): the Mean aggregator's
// kernel, which the trainer's virtual evaluation also calls.
void WeightedMean(const std::vector<const nn::Sequential*>& models,
                  const std::vector<double>& weights, nn::Sequential* out);

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

// Per-run robustness counters surfaced in RunResult / bench tables
// (defined beside the event fold that writes the quarantine fields).
using RobustCounters = obs::RobustCounters;

// ---------------------------------------------------------------------------
// Update screening
// ---------------------------------------------------------------------------

struct ScreeningConfig {
  // L2 bound on the update delta ||w - w_ref||; a longer update is scaled
  // back onto the ball (kept, counted as clipped). 0 disables.
  double clip_norm = 0.0;
  // Adaptive outlier rejection: drop an update whose delta norm exceeds
  // factor * median(delta norms of the round). 0 disables.
  double norm_reject_factor = 0.0;
  // Drop an update whose parameter vector's cosine similarity against the
  // last aggregate falls below this. -1 disables (cosine is never < -1);
  // sign-flipped models land at ~-1, honest updates at ~+1.
  double cosine_reject_below = -1.0;

  bool active() const {
    return clip_norm > 0.0 || norm_reject_factor > 0.0 ||
           cosine_reject_below > -1.0;
  }
};

enum class ScreeningOutcome {
  kAccepted = 0,
  kClipped,        // accepted after L2 clipping
  kNonFinite,      // rejected: NaN/Inf coordinate
  kNormOutlier,    // rejected: delta-norm outlier
  kCosineOutlier,  // rejected: cosine anomaly
};

struct ScreeningVerdict {
  ScreeningOutcome outcome = ScreeningOutcome::kAccepted;
  double update_norm = 0.0;  // ||w - w_ref|| before any clipping
  double cosine = 1.0;       // cos(w, w_ref)

  bool accepted() const {
    return outcome == ScreeningOutcome::kAccepted ||
           outcome == ScreeningOutcome::kClipped;
  }
  // A flagged upload feeds the reputation machine.
  bool flagged() const { return !accepted(); }
};

// Screens `models` against `reference` (the last aggregate). Survivors are
// appended to `out_models`/`out_weights`; a clipped survivor is
// materialized into `clipped_storage`, which the caller must keep alive
// until aggregation is done. The non-finite gate always runs; the other
// rules follow `config`. Each verdict is counted in `counters`.
std::vector<ScreeningVerdict> ScreenUpdates(
    const ScreeningConfig& config,
    const std::vector<const nn::Sequential*>& models,
    const std::vector<double>& weights, const nn::Sequential& reference,
    std::vector<const nn::Sequential*>* out_models,
    std::vector<double>* out_weights,
    std::vector<std::unique_ptr<nn::Sequential>>* clipped_storage,
    RobustCounters* counters);

// True when every parameter of `model` is finite.
bool ParamsFinite(const nn::Sequential& model);

// ---------------------------------------------------------------------------
// Reputation / quarantine
// ---------------------------------------------------------------------------

enum class ReputationState {
  kHealthy = 0,
  kSuspect,
  kQuarantined,
  kRehabilitating,
};

struct ReputationConfig {
  bool enabled = false;
  // Flagged rounds (accumulated while suspect/rehabilitating) before
  // quarantine, and clean-round streak required to step back to healthy.
  // An always-flagged attacker is quarantined after exactly `patience`
  // aggregation rounds; any client leaves suspect within patience^2 - 1
  // rounds (strikes never reset inside suspect, so the state cannot be
  // oscillated in forever).
  int patience = 3;
  // Rounds spent quarantined before rehabilitation begins.
  int quarantine_rounds = 4;
};

// Per-client reputation driven by screening verdicts. One Report* call per
// participating client per aggregation round, then one AdvanceRound().
class ReputationTracker {
 public:
  ReputationTracker() = default;
  ReputationTracker(const ReputationConfig& config, int num_clients);

  bool enabled() const { return config_.enabled; }
  int num_clients() const { return num_clients_; }
  // Clients holding a record: those ever flagged (or restored non-healthy).
  size_t num_records() const { return records_.size(); }
  ReputationState state(int client) const;
  // False only while quarantined: such clients neither upload nor appear
  // in the DRL/FLMM action space nor serve as migration endpoints.
  bool Eligible(int client) const;

  void ReportClean(int client);
  void ReportFlagged(int client);
  // Round tick: quarantine countdowns, rehabilitation promotions. Call
  // once per aggregation round, after all reports.
  void AdvanceRound();

  // Aggregation round (1-based) in which the client first entered
  // quarantine; -1 if never. The bench's quarantine-latency column.
  int first_quarantine_round(int client) const;

  // Snapshot layout: the round counter and one record per client (the
  // default one for a client without); the client count must match.
  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(round_);
    ar.Io(util::SparseSeq(records_, static_cast<size_t>(num_clients_),
                          "reputation state client count mismatch"));
    return ar.status();
  }

  // One state-machine edge, recorded as it happens. Drained by the trainer
  // once per round into kQuarantineTransition events, from which the
  // quarantine and rehabilitation counts are folded.
  struct Transition {
    int client = 0;
    ReputationState from = ReputationState::kHealthy;
    ReputationState to = ReputationState::kHealthy;
  };

  // Returns the transitions recorded since the last drain (in report/tick
  // order, so deterministic) and clears the list.
  std::vector<Transition> DrainTransitions();

 private:
  struct ClientRecord {
    ReputationState state = ReputationState::kHealthy;
    int strikes = 0;          // flagged rounds since entering suspect
    int clean_streak = 0;     // consecutive clean rounds in current state
    int quarantine_left = 0;  // rounds remaining in quarantine
    int first_quarantine_round = -1;

    template <class Ar>
    util::Status Visit(Ar& ar) {
      ar.Io(state);
      ar.Check(state >= ReputationState::kHealthy &&
                   state <= ReputationState::kRehabilitating,
               "reputation state out of range");
      ar.Io(strikes);
      ar.Io(clean_streak);
      ar.Io(quarantine_left);
      ar.Io(first_quarantine_round);
      return ar.status();
    }
    bool operator==(const ClientRecord&) const = default;
  };

  void Quarantine(int client, ClientRecord* record);
  void RecordTransition(int client, ReputationState from, ReputationState to);

  // SNAPSHOT-SKIP(configuration, supplied identically on resume)
  ReputationConfig config_;
  int num_clients_ = 0;  // the stream's sequence length
  // Records of the clients that have one, in id order: AdvanceRound walks
  // them, so transitions come out in id order (never a hash map).
  std::map<int, ClientRecord> records_;
  int round_ = 0;  // completed aggregation rounds
  // Drained into the event stream every aggregation round, so always empty
  // at the epoch boundaries where snapshots are taken.
  // SNAPSHOT-SKIP(drained every round; empty at snapshot boundaries)
  std::vector<Transition> transitions_;
};

// ---------------------------------------------------------------------------
// Config bundle + attack application
// ---------------------------------------------------------------------------

struct RobustConfig {
  AggregatorKind aggregator = AggregatorKind::kMean;
  AggregatorOptions aggregator_options;
  ScreeningConfig screening;
  ReputationConfig reputation;
};

// Preset defense profiles for benches and CLI flags. A profile sets only
// `screening` and `reputation`; `aggregator` and `aggregator_options` are
// left as they are (benches take them from --aggregator, in either flag
// order):
//   "off"     — no screening, no quarantine
//   "screen"  — screening only (clip + norm outlier + cosine gate)
//   "defense" — screening + reputation/quarantine
bool ParseRobustProfile(const std::string& name, RobustConfig* config);

// Applies Byzantine tampering in place (see net::AttackMode). `rng` is the
// injector's dedicated attack stream so the tampering is deterministic and
// replayed bit-identically on resume.
void ApplyAttack(net::AttackMode mode, double scale, util::Rng* rng,
                 nn::Sequential* model);

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_ROBUST_H_
