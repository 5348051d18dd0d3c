// The FL experiment loop.
//
// One Trainer instance runs one scheme over one dataset/partition/topology
// and produces a RunResult with the full metric history. All five schemes
// of the paper are expressed through the same loop:
//   FedAvg   — agg_period = 1, NoMigrationPolicy
//   FedProx  — agg_period = 1, NoMigrationPolicy, fedprox_mu > 0
//   FedSwap  — agg_period = M+1, FedSwapPolicy (via-server exchange)
//   RandMigr — agg_period = M+1, RandomMigrationPolicy
//   FedMigr  — agg_period = M+1, DrlMigrationPolicy (src/rl) or FlmmPolicy
//
// Epoch structure follows Section II-B: every epoch is one Local Updating
// pass (τ local epochs on every client); on aggregation epochs the models
// travel to the PS and back (C2S traffic over the WAN), on the remaining
// epochs the active policy migrates models directly between clients (C2C).

#ifndef FEDMIGR_FL_TRAINER_H_
#define FEDMIGR_FL_TRAINER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/partition.h"
#include "dp/gaussian.h"
#include "fl/client.h"
#include "fl/cohort.h"
#include "fl/model_store.h"
#include "fl/policies.h"
#include "fl/robust.h"
#include "fl/server.h"
#include "net/budget.h"
#include "net/device.h"
#include "net/fault.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "obs/events.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace fedmigr::fl {

struct TrainerConfig {
  std::string scheme_name = "fedavg";
  int max_epochs = 200;
  // Aggregate every `agg_period` epochs; the paper's M = agg_period - 1
  // migrations per global iteration ("agg50" = agg_period 50).
  int agg_period = 1;
  int tau = 1;  // local epochs per Local Updating phase
  int batch_size = 32;
  double learning_rate = 0.05;
  double momentum = 0.0;
  double fedprox_mu = 0.0;
  // Fraction α of clients selected per global iteration (Sec. II-A's
  // FedAvg knob). 1.0 = all clients, the paper's evaluation setting.
  double client_fraction = 1.0;
  // Participants per aggregation round. Every per-epoch phase iterates the
  // round's cohort. 0 selects full participation: the identity cohort
  // [0, K), built eagerly, which receives the aggregate when a round
  // commits. A positive value C samples a deterministic cohort of C clients
  // per round (seeded by `seed` and the round index); only its members are
  // materialized, trained, screened, aggregated and migrated, so per-epoch
  // cost is O(C) and memory is O(C) model blocks on top of the shared
  // aggregate. Must not exceed K. Mutually exclusive with
  // client_fraction < 1 (a sampled cohort *is* the participation sample).
  int cohort_size = 0;
  // Per-epoch probability that a client is unavailable (edge nodes
  // "dynamically join/leave the system", Sec. III-C). An unavailable
  // client skips local updating and neither sends nor receives migrations
  // that epoch.
  double dropout_prob = 0.0;
  // Target test accuracy in [0, 1]; <= 0 disables early stopping.
  double target_accuracy = -1.0;
  // Evaluate the (virtual) global model every this many epochs.
  int eval_every = 5;
  net::Budget budget;  // default: unlimited
  dp::DpConfig dp;
  // Fault model for links and clients (see net/fault.h). The default config
  // is a strict no-op: with all probabilities at zero the trainer follows
  // exactly the fault-free code path and produces bit-identical results.
  net::FaultConfig fault;
  // Byzantine-robust aggregation, update screening and client quarantine
  // (see fl/robust.h). The default config is inert: Mean aggregation
  // (weighted FedAvg), no screening beyond the always-on non-finite gate,
  // no reputation.
  RobustConfig robust;
  // Round-progress watchdog: an aggregation round commits (aggregate +
  // publish) only when at least ceil(quorum_fraction * expected) uploads
  // arrived before the upload deadline, where `expected` counts the
  // participating, reputation-eligible members of the round. On a quorum
  // miss nothing is published — the fleet keeps training against the last
  // published aggregate — and in cohort mode the survivors' local updates
  // are carried into the next round's cohort so their error feedback is not
  // lost. 0 disables the watchdog (the legacy always-commit behavior).
  double quorum_fraction = 0.0;
  // When the WAN to the server is shared, uploads serialize; when false,
  // each client has an independent WAN path.
  bool wan_shared = true;
  uint64_t seed = 1;
  // Client-parallel local updating. Worth raising only on multi-core hosts.
  int num_threads = 1;
};

// The chaos ledger: migration routes, the quorum watchdog and fleet churn,
// each the fold of the events that record them (obs/events.h).
using ChaosCounters = obs::ChaosCounters;

struct EpochRecord {
  int epoch = 0;
  double train_loss = 0.0;
  // Test metrics are only refreshed on eval epochs; in between the last
  // value is carried forward.
  double test_accuracy = 0.0;
  double test_loss = 0.0;
  double cumulative_time_s = 0.0;
  double cumulative_traffic_gb = 0.0;
  bool aggregated = false;
  int migrations = 0;

  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(epoch);
    ar.Io(train_loss);
    ar.Io(test_accuracy);
    ar.Io(test_loss);
    ar.Io(cumulative_time_s);
    ar.Io(cumulative_traffic_gb);
    ar.Io(aggregated);
    ar.Io(migrations);
    return ar.status();
  }
};

struct RunResult {
  std::string scheme;
  std::vector<EpochRecord> history;
  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
  int epochs_run = 0;
  double time_s = 0.0;
  // Total training samples processed (the compute-budget unit).
  double compute_units = 0.0;
  double traffic_gb = 0.0;
  double c2s_gb = 0.0;
  double c2c_gb = 0.0;
  // Directional C2S split: uploads (client -> server, including uploads a
  // straggler deadline later drops from aggregation and failed-attempt
  // charges) vs downloads (server -> client distribution). Keeps per-round
  // cohort accounting from double-counting dropped uploads as distribution
  // traffic.
  double c2s_up_gb = 0.0;
  double c2s_down_gb = 0.0;
  bool reached_target = false;
  int epochs_to_target = -1;
  double time_to_target_s = -1.0;
  double traffic_to_target_gb = -1.0;
  bool budget_exhausted = false;
  // Set when the run was stopped early by the epoch hook (snapshot-and-exit,
  // SIGINT, ...) rather than by a natural stop condition. A resumed run
  // clears it and continues exactly where the interrupted one left off.
  bool interrupted = false;
  // Full per-link accounting, for the Fig. 8 link-frequency analysis.
  net::TrafficAccountant traffic;
  // Fault-tolerance counters (attempts, retries, fallbacks, dropped
  // stragglers, checksum rejects, ...). All zero when faults are disabled.
  net::FaultCounters faults;
  // Robustness counters (screened/rejected uploads, attacks applied,
  // quarantine events; see fl/robust.h).
  RobustCounters robust;
  // Chaos-recovery counters (migration capture/rollback ledger, quorum
  // commits/misses, churn membership), folded from the run's events.
  ChaosCounters chaos;
  // Aggregation round (1-based) in which each client first entered
  // quarantine; -1 = never. Empty when reputation is disabled.
  std::vector<int> first_quarantine_round;
  // Registry snapshot taken as Run() returned. The registry accumulates
  // process-wide, so diff two snapshots to isolate a single run. Empty when
  // telemetry is disabled.
  obs::MetricsSnapshot metrics;
};

// Bumped whenever the trainer state layout changes (the schema-digest test
// fails until it is, and the bump appends rows to its table).
// v2: robustness counters + reputation state appended after the policy blob.
// v3: cohort_size joins the fingerprint; per-client records gain a kind
//     byte (0 = lazy, never materialized; 1 = materialized) and a flag byte
//     that elides the parameter payload when the replica aliases the
//     current aggregate block (see Client::Visit).
// v4: chaos layer — quorum_fraction and a hash of the chaos schedule join
//     the fingerprint; the injector stream gains the epoch counter and the
//     partition/outage counters; chaos counters, the effective cohort (no
//     longer pure in (seed, round) once churn and carryover apply) and the
//     quorum carryover list are appended after the reputation state.
// v5: flight-recorder lineage — the per-slot lineage ids and the model
//     store's mint state (next id, aggregate, parent) are appended after
//     the chaos block, so a resumed run keeps emitting the same causal
//     edges the uninterrupted run would have.
// v6: the stream holds only the clients that exist. Provenance records
//     (distribution, samples, lineage) and reputation records stream as
//     id-keyed maps; the client slots are a count-prefixed list of the
//     materialized ids, each followed by its record; participation bits are
//     written for the active clients only, after the cohort, which moves
//     ahead of them; the fault injector keeps id lists of its crashed,
//     straggling and Byzantine clients. The per-link byte map and the
//     unread cohort-round slot are gone.
inline constexpr uint32_t kTrainerStateVersion = 6;

class Trainer {
 public:
  using ModelFactory = std::function<nn::Sequential(util::Rng*)>;

  // `train` and `test` must outlive the trainer. `partition[k]` is client
  // k's index list; partition size, topology client count and device count
  // must agree.
  Trainer(TrainerConfig config, const data::Dataset* train,
          data::Partition partition, const data::Dataset* test,
          net::Topology topology, std::vector<net::DeviceProfile> devices,
          ModelFactory model_factory,
          std::unique_ptr<MigrationPolicy> policy);

  // Runs the configured number of epochs (or until the target accuracy /
  // budget stop) and returns the collected metrics. Re-entrant: after
  // LoadState (or an epoch-hook stop) a further Run() call continues from
  // the first unfinished epoch and yields the same bytes an uninterrupted
  // run would have produced.
  RunResult Run();

  int num_clients() const { return clients_.size(); }

  // Sharded-simulator introspection (gauges, scalability tests).
  int num_materialized_clients() const { return clients_.num_materialized(); }
  // Client `i`, or nullptr while it is lazy.
  const Client* materialized_client(int i) const { return clients_.Get(i); }
  const nn::Sequential& global_model() const {
    return server_->global_model();
  }
  long aggregate_aliases() const { return store_.aggregate_use_count(); }
  // Sampled cohort of the current round. Empty under full participation,
  // whose identity cohort [0, K) is implicit and never stored.
  const std::vector<int>& cohort() const { return cohort_; }

  // Called after each completed epoch (all bookkeeping and policy feedback
  // done). Returning false stops the run gracefully: Run() returns with
  // `interrupted` set and the trainer left in a state Run() can continue
  // from. The snapshot subsystem uses this for cadence saves and SIGINT.
  using EpochHook = std::function<bool(const Trainer&, int epoch)>;
  void SetEpochHook(EpochHook hook) { epoch_hook_ = std::move(hook); }

  // Attaches the flight recorder (obs/journal.h); nullptr detaches it.
  // Non-owning; the journal must be Attach()ed and outlive Run(). It
  // persists the event stream the trainer always records, one chunk per
  // epoch, and changes no counter. May be toggled from the epoch hook
  // (epochs run while detached have no chunk), as bench_telemetry does.
  void SetJournal(obs::Journal* journal);

  // Per-client lineage id (the publish the client's model descends from;
  // 0 = pre-publish or never materialized). Exposed for the lineage tests.
  int64_t model_lineage(int client) const {
    const auto it = provenance_.find(client);
    return it == provenance_.end() ? 0 : it->second.lineage;
  }
  // Clients holding a provenance record: every client ever materialized.
  size_t num_provenance_records() const { return provenance_.size(); }

  // First epoch the next Run() call would execute (1-based; max_epochs + 1
  // once the run is complete).
  int next_epoch() const { return progress_.next_epoch; }
  bool done() const { return progress_.done; }

  // Serializes everything a bit-identical continuation needs: run progress,
  // metric history, the server model, every client (model + optimizer +
  // RNG), the policy (via MigrationPolicy::SaveState), and the budget /
  // traffic / fault / RNG streams. LoadState validates a fingerprint
  // (scheme, client count, parameter count, seed, schedule) and commits the
  // trainer's own fields only once the whole blob has parsed.
  void SaveState(util::ByteWriter* writer) const;
  util::Status LoadState(util::ByteReader* reader);

  // Snapshot layout (util/serial.h, DESIGN.md §15). Saving and the schema
  // digest visit this trainer; loading visits stand-ins for its own fields
  // and commits them once the whole stream has validated. Clients and the
  // policy cannot be staged without copying whole models, so they load in
  // place; the snapshot container's CRC gate runs before any of this.
  template <class Ar>
  util::Status Visit(Ar& ar);

 private:
  // The steps of one epoch in the order Run calls them; DESIGN.md §16
  // lists the trace span and the events each owns. EpochStart (trainer.cc)
  // is what the commit and finish steps measure the epoch against.
  struct EpochStart;
  EpochStart BeginEpoch(int epoch);
  // Returns the weighted mean training loss.
  double LocalUpdatePhase(int epoch);
  // A quorum miss skips screening, aggregation, publish and distribution.
  // The evaluation step runs inside this phase's span, before the publish.
  void AggregationPhase(int epoch);
  // Plans over the active clients' local index space, executes against the
  // real fleet; returns the number of moves.
  int MigrationPhase(int epoch, double loss);
  // On evaluation epochs, measures the server's global model on
  // aggregation epochs and the virtual aggregate of the local models
  // otherwise.
  void EvaluationPhase(int epoch, bool aggregated);
  void CloseEpoch(const EpochStart& start, double sim_after_update,
                  EpochRecord* record);
  // False when the epoch hook interrupts the run.
  bool FinishEpoch(const EpochStart& start, const EpochRecord& record);

  // The snapshot stream in order, read from this trainer (S = Trainer) or
  // parsed into stand-ins (S = Staged) that mirror its fields by name.
  struct Staged;
  template <class Ar, class S>
  util::Status VisitState(Ar& ar, S& s);
  void Commit(Staged&& staged);

  // True when participants are a sampled cohort (cohort_size > 0); false
  // under full participation. The forks on it are construction (lazy vs
  // eager), when the aggregate is distributed, the planning topology and
  // the quorum carryover list.
  bool cohort_mode() const { return cohort_sampler_ != nullptr; }
  // The ids every per-epoch loop iterates: the sampled cohort, or the
  // identity cohort [0, K).
  const std::vector<int>& active_clients() const {
    return cohort_mode() ? cohort_ : identity_;
  }
  // Client i, materialized on demand (cohort mode) from the retained
  // partition slice with the same seed it would have received eagerly.
  Client& ClientAt(int i);
  // Client i without materializing; CHECK-fails if still lazy.
  Client& MaterializedClient(int i) const;
  // Starts aggregation round `round` in `epoch`. Full participation
  // re-draws its α-sample. A sampled cohort retires the previous members,
  // samples the new ones, materializes them and delivers the current
  // aggregate.
  void BeginRound(int epoch, int64_t round);
  // Model Distribution: delivers the published aggregate to each of
  // `targets` that does not already hold it; returns the download seconds.
  double DistributeAggregate(int epoch, const std::vector<int>& targets);
  // Applies the CoW model moves of an executed plan; `ids` maps the plan's
  // local index space to global client ids.
  int ApplyMigrationMoves(int epoch, const MigrationPlan& plan,
                          const MigrationExecution& exec,
                          const std::vector<int>& ids);

  TrainerConfig config_;
  // SNAPSHOT-SKIP(construction-time inputs, supplied again on resume)
  const data::Dataset* train_;
  const data::Dataset* test_;
  net::Topology topology_;  // SNAPSHOT-SKIP(construction-time input)
  // SNAPSHOT-SKIP(construction-time input, supplied again on resume)
  std::vector<net::DeviceProfile> devices_;
  std::unique_ptr<MigrationPolicy> policy_;
  // Retained for lazy materialization; slot i is moved into client i when
  // it first joins a cohort (and reclaimed if a snapshot restore returns
  // the client to the lazy state).
  data::Partition partition_;
  ShardedClients clients_;
  ModelStore store_;
  // SNAPSHOT-SKIP(deterministic in config seed; rebuilt on construction)
  std::unique_ptr<CohortSampler> cohort_sampler_;
  std::vector<int> cohort_;       // sorted ids of the current round's cohort
  // Survivors of a quorum-missed round (sorted ids): their uploads never
  // committed, so BeginRound folds them into the next cohort and skips
  // their Model Distribution — they keep the pending local update.
  std::vector<int> carryover_;
  // SNAPSHOT-SKIP(constant iota over [0, K), rebuilt on construction)
  std::vector<int> identity_;     // [0, K) — the full-participation cohort
  std::unique_ptr<Server> server_;
  net::Budget budget_;
  net::TrafficAccountant traffic_;
  net::FaultInjector faults_;
  util::Rng rng_;
  util::ThreadPool pool_;  // SNAPSHOT-SKIP(runtime infrastructure)
  // SNAPSHOT-SKIP(derived from the global model at construction)
  int64_t model_bytes_ = 0;
  int64_t model_params_ = 0;

  // Model provenance: the label distribution the resident model has
  // accumulated since the last aggregation, its sample weight, and the
  // ModelStore publish id it descends from (0 until the first distribution;
  // minted only in serial code, inherited by CoW clones, moved by
  // migrations — the causal edge stream the flight recorder emits).
  struct Provenance {
    std::vector<double> dist;
    double samples = 0.0;
    int64_t lineage = 0;
    void Reset(int64_t from);  // holds publish `from`, nothing absorbed

    template <class Ar>
    util::Status Visit(Ar& ar) {
      ar.Io(dist);
      ar.Io(samples);
      ar.Io(lineage);
      return ar.status();
    }
  };
  // One record per client ever materialized, in id order (never a hash
  // map). ClientAt creates it, churn eviction zero-fills it; only serial
  // code touches it.
  std::map<int, Provenance> provenance_;

  // Participation state: the α-sample for the current global iteration and
  // this epoch's availability (participation minus dropouts). `eligible_`
  // additionally masks out quarantined clients; it is what the migration
  // policies (and thus the DRL/FLMM action space) see, and it equals
  // `available_` whenever reputation is disabled.
  std::vector<bool> participating_;
  std::vector<bool> available_;
  // SNAPSHOT-SKIP(derived from availability and reputation on load)
  std::vector<bool> eligible_;

  // Robustness state: the aggregation rule installed into the server and
  // per-client reputation.
  // SNAPSHOT-SKIP(rebuilt from config_.robust at construction)
  std::unique_ptr<Aggregator> aggregator_;
  ReputationTracker reputation_;

  // This epoch's events, and the run counters folded from every committed
  // epoch (plus the screen's in-place counts). The snapshot keeps
  // counts_.robust and counts_.chaos; nothing reads the other two here.
  // SNAPSHOT-SKIP(cleared at every epoch commit, so empty at snapshots)
  obs::EventBuffer events_;
  obs::EventCounts counts_;

  // Run-loop state promoted to members so a run can be snapshotted between
  // epochs and continued bit-identically.
  struct RunProgress {
    int next_epoch = 1;
    double last_accuracy = 0.0;
    double last_test_loss = 0.0;
    double previous_loss = -1.0;
    bool done = false;
  };
  RunProgress progress_;
  RunResult result_;
  EpochHook epoch_hook_;  // SNAPSHOT-SKIP(caller-installed callback)
  // The journal's durability is its own frame-per-epoch append plus the
  // resume-time truncation — nothing of it rides in the snapshot. Never
  // null: detached, it is a never-attached journal that persists nothing.
  // SNAPSHOT-SKIP(caller-attached recorder with its own durability)
  obs::Journal* journal_;
};

}  // namespace fedmigr::fl

#endif  // FEDMIGR_FL_TRAINER_H_
