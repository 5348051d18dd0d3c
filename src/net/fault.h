// Fault injection for the edge-network simulator.
//
// The paper's setting is an unreliable heterogeneous edge: clients
// "dynamically join and leave the system" (Sec. III-C), links degrade, and
// in-flight model transfers can be interrupted (the problem FedFly is built
// around). `FaultInjector` models that world deterministically from a seed:
//
//   - per-attempt link failure (a transfer dies mid-flight),
//   - bandwidth degradation jitter (a transfer runs slower than nominal),
//   - client crash windows (a client is down for a sampled number of epochs),
//   - straggler slowdown multipliers (a client computes/transmits slower),
//   - payload corruption (a transfer arrives, but bit-flipped).
//
// `Transfer()` is the fault-aware transfer primitive: bounded retry with
// exponential backoff and an optional per-transfer deadline. Failed attempts
// are still charged to the TrafficAccountant and the simulated clock — an
// interrupted migration wastes real bandwidth and time.
//
// With every probability at zero (the default config) the injector is a
// strict no-op: Transfer() produces byte-identical accounting to the direct
// path, no RNG state leaks into the caller (the injector draws from its own
// stream), and Begin/IsCrashed/SlowdownFactor are free.
//
// On top of the per-link/per-client faults sits the *infrastructure* chaos
// layer (ChaosConfig): scheduled LAN partition windows, edge-server outage
// windows and fleet churn. All three are pure functions of the config and
// the epoch counter — no RNG is drawn for them, so enabling a window cannot
// perturb the link/crash/straggler streams, and a resumed run only needs
// the serialized epoch counter to replay the same schedule.

#ifndef FEDMIGR_NET_FAULT_H_
#define FEDMIGR_NET_FAULT_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "net/topology.h"
#include "net/traffic.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/status.h"

namespace fedmigr::net {

// Byzantine (adversarial) client behavior. Unlike the link faults above,
// these tamper with the *content* of an update before it is serialized, so
// CRC framing cannot catch them — the robust-aggregation layer (fl/robust)
// has to. The tampering itself is applied by the fl layer (it needs the
// model); the injector only decides *who* attacks and owns the dedicated
// RNG stream the tampering draws from.
enum class AttackMode {
  kNone = 0,
  kSignFlip,          // w <- -w (gradient-ascent poisoning)
  kGaussianNoise,     // w <- w + N(0, attack_scale^2) per coordinate
  kScaledModel,       // w <- attack_scale * w (model boosting)
  kSilentCorruption,  // sparse finite garbage written pre-serialization;
                      // passes CRC32 and the NaN gate by construction
  kNanInjection,      // w <- NaN (a diverged or bricked client)
};

// "none" | "sign-flip" | "gaussian" | "scale" | "silent" | "nan".
bool ParseAttackMode(const std::string& name, AttackMode* mode);
const char* AttackModeName(AttackMode mode);

// One scheduled LAN partition: while epoch is inside
// [start_epoch, start_epoch + duration_epochs) every transfer crossing the
// sealed LAN's boundary — including hops to the edge server — fails fast.
// Intra-LAN traffic continues. Epochs are 1-based BeginEpoch ticks.
struct PartitionWindow {
  int lan = 0;
  int start_epoch = 1;
  int duration_epochs = 1;
};

// One scheduled edge-server outage: transfers touching kServerId fail fast
// while the window is active; C2C traffic is unaffected.
struct OutageWindow {
  int start_epoch = 1;
  int duration_epochs = 1;
};

// Infrastructure-level chaos schedule. Everything here is a pure function
// of (config, epoch) or (config, client, round): no RNG stream is consumed,
// so a zeroed ChaosConfig is indistinguishable from no chaos at all and the
// schedule replays identically after a snapshot resume.
struct ChaosConfig {
  // Explicit partition windows, plus an optional recurring generator: when
  // partition_period > 0, LAN `partition_lan` is sealed for
  // `partition_epochs` epochs starting at every
  // partition_phase + n * partition_period.
  std::vector<PartitionWindow> partitions;
  int partition_period = 0;  // 0 = generator off
  int partition_phase = 1;
  int partition_lan = 0;
  int partition_epochs = 1;
  // Edge-server outage windows and the matching recurring generator.
  std::vector<OutageWindow> outages;
  int outage_period = 0;  // 0 = generator off
  int outage_phase = 1;
  int outage_epochs = 1;
  // Fleet churn: per-round probability that a given client is out of the
  // fleet, decided by a pure hash of (churn_seed, client, round). The fl
  // layer applies the membership semantics (absences from the sampled
  // cohort, departures that discard private state, re-joins minting from
  // the current aggregate); the knob lives here so one FaultConfig
  // describes the whole failure model.
  double churn_rate = 0.0;
  uint64_t churn_seed = 101;

  bool has_partitions() const {
    return !partitions.empty() || partition_period > 0;
  }
  bool has_outages() const { return !outages.empty() || outage_period > 0; }
  bool enabled() const {
    return has_partitions() || has_outages() || churn_rate > 0.0;
  }
};

struct FaultConfig {
  // Per-attempt probability that a transfer fails in flight.
  double link_failure_prob = 0.0;
  // Bandwidth degradation: each attempt is slowed by a factor drawn
  // uniformly from [1, 1 + bandwidth_jitter]. 0 = nominal bandwidth.
  double bandwidth_jitter = 0.0;
  // Per-epoch probability that a healthy client crashes. A crashed client
  // is down for a number of epochs drawn uniformly from
  // [crash_min_epochs, crash_max_epochs].
  double crash_prob = 0.0;
  int crash_min_epochs = 1;
  int crash_max_epochs = 3;
  // Per-epoch probability that a client is a straggler, and the multiplier
  // applied to its compute and transfer times while it is one.
  double straggler_prob = 0.0;
  double straggler_slowdown = 4.0;
  // Per-delivery probability that the payload arrives corrupted (detected
  // by the receiver's checksum; see nn/serialize).
  double corruption_prob = 0.0;
  // Retry policy: up to `max_retries` re-attempts after the first failure,
  // with exponential backoff backoff_base_s * 2^attempt between attempts.
  int max_retries = 2;
  double backoff_base_s = 0.5;
  // A transfer (including retries and backoff) that would exceed this
  // deadline is abandoned with kDeadlineExceeded. Infinity = no deadline.
  double transfer_deadline_s = std::numeric_limits<double>::infinity();
  // Aggregation-round straggler deadline: uploads arriving at the server
  // later than this are dropped from the round (the server aggregates
  // whatever arrived in time). Infinity = wait for everyone.
  double upload_deadline_s = std::numeric_limits<double>::infinity();
  // Failed C2C migrations are re-routed through the parameter server
  // (charged as two C2S hops) before giving up.
  bool server_fallback = true;
  // Byzantine clients: `attack_fraction` of the fleet (rounded, sampled
  // once from the injector's attack stream, persistent for the whole run)
  // applies `attack_mode` to its model after every local update.
  // `attack_scale` is the noise stddev / scale multiplier.
  AttackMode attack_mode = AttackMode::kNone;
  double attack_fraction = 0.0;
  double attack_scale = 8.0;
  // Infrastructure chaos schedule (partitions / outages / churn).
  ChaosConfig chaos;
  uint64_t seed = 97;

  bool attacks_enabled() const {
    return attack_mode != AttackMode::kNone && attack_fraction > 0.0;
  }

  // True when any fault mechanism can fire.
  bool enabled() const {
    return link_failure_prob > 0.0 || bandwidth_jitter > 0.0 ||
           crash_prob > 0.0 || straggler_prob > 0.0 || corruption_prob > 0.0 ||
           attacks_enabled() || chaos.enabled();
  }
};

// Per-run fault counters surfaced in RunResult / bench tables: plain data,
// incremented in place by the injector (receiver-side outcomes through its
// Count* methods). The trainer publishes each field's per-epoch growth to
// the obs registry as a `net/fault_*` counter (fl/trainer.cc).
struct FaultCounters {
  int64_t attempts = 0;           // transfer attempts (incl. retries)
  int64_t failures = 0;           // attempts that failed in flight
  int64_t retries = 0;            // re-attempts after an in-flight failure
  int64_t deadline_aborts = 0;    // transfers abandoned at the deadline
  int64_t aborted_transfers = 0;  // transfers that gave up after retries
  int64_t fallbacks = 0;          // C2C moves re-routed via the server
  int64_t corrupted = 0;          // deliveries flagged as corrupted
  int64_t corrupt_rejected = 0;   // payloads rejected by checksum
  int64_t dropped_stragglers = 0; // uploads past the aggregation deadline
  int64_t crash_epochs = 0;       // client-epochs spent crashed
  int64_t crashes = 0;            // crash events
  int64_t partitioned_transfers = 0;  // refused at a sealed LAN boundary
  int64_t outage_transfers = 0;       // refused during a server outage
};

struct TransferResult {
  util::Status status;   // OK on delivery (possibly corrupted)
  double seconds = 0.0;  // simulated time incl. failed attempts and backoff
  int64_t bytes = 0;     // traffic charged incl. failed attempts
  int attempts = 0;
  bool corrupted = false;  // delivered, but the payload failed in flight
};

class FaultInjector {
 public:
  // Default: disabled, a strict no-op on every path.
  FaultInjector() : FaultInjector(FaultConfig{}) {}
  explicit FaultInjector(const FaultConfig& config);

  bool enabled() const { return config_.enabled(); }
  const FaultConfig& config() const { return config_; }

  // Rolls per-epoch client state: crashed clients count down their outage
  // window, healthy clients may crash, stragglers are re-sampled.
  void BeginEpoch(int num_clients);
  bool IsCrashed(int client) const;
  // 1.0 for healthy clients, straggler_slowdown for stragglers. The server
  // (kServerId) never straggles.
  double SlowdownFactor(int client) const;

  // True when `client` belongs to the persistent Byzantine set. The set is
  // sampled on the first BeginEpoch (round(attack_fraction * K) distinct
  // clients) from the dedicated attack stream, so enabling attacks leaves
  // the link/crash/straggler trajectory untouched.
  bool IsAttacker(int client) const;
  // Stream the fl layer draws attack noise / corruption indices from;
  // serialized with the injector so a resumed run replays the same attack.
  util::Rng* attack_rng() { return &attack_rng_; }

  // Chaos schedule queries. `epoch` is the 1-based BeginEpoch tick; the
  // current tick is `epoch()`. All three are pure — no RNG is drawn.
  int epoch() const { return epoch_; }
  bool LanSealed(int lan, int epoch) const;
  bool ServerDown(int epoch) const;
  // Number of distinct LANs sealed at `epoch` (the trainer publishes it as
  // the net/chaos_partitions_active gauge).
  int ActivePartitions(int epoch) const;
  // Fleet churn membership: true when `client` is out of the fleet for
  // `round`. Pure hash of (chaos.churn_seed, client, round).
  bool ChurnedOut(int client, int64_t round) const;

  // One fault-aware transfer over (src, dst); either endpoint may be
  // kServerId. Every attempt is charged to `traffic` (if non-null); the
  // returned seconds include failed attempts and backoff. A transfer
  // refused by the chaos schedule (sealed LAN boundary or server outage)
  // fails fast: one connection-setup latency, zero bytes, no RNG drawn.
  TransferResult Transfer(int src, int dst, int64_t bytes,
                          const Topology& topology,
                          TrafficAccountant* traffic);

  const FaultCounters& counters() const { return counters_; }

  // Fault outcomes detected by the *receiver* (checksum rejects, uploads
  // past the aggregation deadline, server fallbacks) are counted here, since
  // the counters are the injector's own state.
  void CountCorruptRejected() { ++counters_.corrupt_rejected; }
  void CountDroppedStraggler() { ++counters_.dropped_stragglers; }
  void CountFallback() { ++counters_.fallbacks; }

  // True when the held client ids are sorted, distinct and in
  // [0, num_clients) and every crashed client has epochs left: what a
  // restored injector must hold (the trainer checks it against its fleet).
  bool ValidFor(int num_clients) const;

  // Snapshot layout: the full injector state (RNG streams, counters, the
  // outage and straggler rolls of the clients they hit) so a resumed run
  // replays the same fault trajectory bit-identically.
  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(rng_);
    ar.Io(counters_.attempts);
    ar.Io(counters_.failures);
    ar.Io(counters_.retries);
    ar.Io(counters_.deadline_aborts);
    ar.Io(counters_.aborted_transfers);
    ar.Io(counters_.fallbacks);
    ar.Io(counters_.corrupted);
    ar.Io(counters_.corrupt_rejected);
    ar.Io(counters_.dropped_stragglers);
    ar.Io(counters_.crash_epochs);
    ar.Io(counters_.crashes);
    ar.Io(down_epochs_);
    ar.Io(stragglers_);
    ar.Io(attack_rng_);
    ar.Io(attackers_);
    ar.Io(attackers_sampled_);
    ar.Io(counters_.partitioned_transfers);
    ar.Io(counters_.outage_transfers);
    ar.Io(epoch_);
    return ar.status();
  }

 private:
  double AttemptSeconds(int src, int dst, int64_t bytes,
                        const Topology& topology);

  // SNAPSHOT-SKIP(configuration, supplied identically on resume)
  FaultConfig config_;
  util::Rng rng_;
  util::Rng attack_rng_;
  FaultCounters counters_;
  std::map<int, int> down_epochs_;  // crashed clients: outage epochs left
  std::vector<int> stragglers_;     // sorted ids of this epoch's stragglers
  std::vector<int> attackers_;      // sorted persistent Byzantine set
  bool attackers_sampled_ = false;
  int epoch_ = 0;  // BeginEpoch ticks; drives the chaos schedule
};

}  // namespace fedmigr::net

#endif  // FEDMIGR_NET_FAULT_H_
