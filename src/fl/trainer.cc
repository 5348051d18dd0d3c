#include "fl/trainer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>

#include "data/distribution.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace fedmigr::fl {

namespace {

// Models a bit-flipped payload reaching a receiver: the real serialized
// frame is built, one payload bit is flipped, and the checksum verdict of
// DeserializeParams decides whether the payload is rejected. Returns true
// when the corruption was caught (the receiver keeps its current model).
bool CorruptedPayloadRejected(const nn::Sequential& model) {
  std::vector<uint8_t> bytes = nn::SerializeParams(model);
  bytes[bytes.size() / 2] ^= 0x08;
  nn::Sequential scratch = model;
  return !nn::DeserializeParams(bytes, &scratch).ok();
}

// Where a trainer with no journal attached persists its events: never
// attached, so every call returns at once without touching its state.
obs::Journal* DetachedJournal() {
  static obs::Journal detached{obs::Journal::Options{}};
  return &detached;
}

// The registry series of the run counters: one table per counter struct,
// naming each field's counter. Trainer::Run adds each field's growth over
// an epoch to its counter; nothing else writes these series.
template <class S>
struct CounterSeries {
  const char* name;
  int64_t S::*field;
};

constexpr CounterSeries<net::FaultCounters> kFaultSeries[] = {
    {"net/fault_attempts", &net::FaultCounters::attempts},
    {"net/fault_failures", &net::FaultCounters::failures},
    {"net/fault_retries", &net::FaultCounters::retries},
    {"net/fault_deadline_aborts", &net::FaultCounters::deadline_aborts},
    {"net/fault_aborted_transfers", &net::FaultCounters::aborted_transfers},
    {"net/fault_fallbacks", &net::FaultCounters::fallbacks},
    {"net/fault_corrupted", &net::FaultCounters::corrupted},
    {"net/fault_corrupt_rejected", &net::FaultCounters::corrupt_rejected},
    {"net/fault_dropped_stragglers", &net::FaultCounters::dropped_stragglers},
    {"net/fault_crash_epochs", &net::FaultCounters::crash_epochs},
    {"net/fault_crashes", &net::FaultCounters::crashes},
    {"net/fault_partitioned_transfers",
     &net::FaultCounters::partitioned_transfers},
    {"net/fault_outage_transfers", &net::FaultCounters::outage_transfers},
};

constexpr CounterSeries<RobustCounters> kRobustSeries[] = {
    {"fl/robust_screened_updates", &RobustCounters::screened_updates},
    {"fl/robust_nonfinite_rejected", &RobustCounters::nonfinite_rejected},
    {"fl/robust_norm_clipped", &RobustCounters::norm_clipped},
    {"fl/robust_norm_rejected", &RobustCounters::norm_rejected},
    {"fl/robust_cosine_rejected", &RobustCounters::cosine_rejected},
    {"fl/robust_attacked_updates", &RobustCounters::attacked_updates},
    {"fl/robust_quarantine_excluded", &RobustCounters::quarantine_excluded},
    {"fl/robust_quarantines", &RobustCounters::quarantines},
    {"fl/robust_rehabilitations", &RobustCounters::rehabilitations},
};

constexpr CounterSeries<ChaosCounters> kChaosSeries[] = {
    {"fl/chaos_migrations_planned", &ChaosCounters::migrations_planned},
    {"fl/chaos_migrations_completed", &ChaosCounters::migrations_completed},
    {"fl/chaos_migration_fallbacks", &ChaosCounters::migration_fallbacks},
    {"fl/chaos_migrations_rolled_back", &ChaosCounters::migrations_rolled_back},
    {"fl/chaos_quorum_commits", &ChaosCounters::quorum_commits},
    {"fl/chaos_quorum_misses", &ChaosCounters::quorum_misses},
    {"fl/chaos_carryover_clients", &ChaosCounters::carryover_clients},
    {"fl/chaos_churn_absences", &ChaosCounters::churn_absences},
    {"fl/chaos_churn_departures", &ChaosCounters::churn_departures},
};

// The TrafficAccountant totals the registry carries, copied out so an epoch
// start costs three loads rather than a copy of the per-link maps.
struct TrafficTotals {
  int64_t transfers = 0;
  int64_t c2s_bytes = 0;
  int64_t c2c_bytes = 0;
};

TrafficTotals Totals(const net::TrafficAccountant& traffic) {
  return {traffic.num_transfers(), traffic.c2s_bytes(), traffic.c2c_bytes()};
}

constexpr CounterSeries<TrafficTotals> kTrafficSeries[] = {
    {"net/transfers", &TrafficTotals::transfers},
    {"net/c2s_bytes", &TrafficTotals::c2s_bytes},
    {"net/c2c_bytes", &TrafficTotals::c2c_bytes},
};

// Adds each field's growth from `before` to `after` to its counter. A
// table's handles resolve on the first epoch that moves one of its fields,
// so a series enters the registry only once something has happened.
template <class S, size_t N>
void PublishGrowth(const CounterSeries<S> (&table)[N], const S& before,
                   const S& after) {
  bool grew = false;
  for (const CounterSeries<S>& series : table) {
    grew = grew || after.*series.field != before.*series.field;
  }
  if (!grew) return;
  static const std::array<obs::Counter*, N> counters = [&table] {
    std::array<obs::Counter*, N> handles{};
    for (size_t i = 0; i < N; ++i) {
      handles[i] = obs::Registry::Default().GetCounter(table[i].name);
    }
    return handles;
  }();
  for (size_t i = 0; i < N; ++i) {
    counters[i]->Add(after.*table[i].field - before.*table[i].field);
  }
}

// How many of the clients `ids` have their bit set in the K-long `bits`.
int CountSet(const std::vector<int>& ids, const std::vector<bool>& bits) {
  int count = 0;
  for (int i : ids) {
    if (bits[static_cast<size_t>(i)]) ++count;
  }
  return count;
}

}  // namespace

Trainer::Trainer(TrainerConfig config, const data::Dataset* train,
                 data::Partition partition, const data::Dataset* test,
                 net::Topology topology,
                 std::vector<net::DeviceProfile> devices,
                 ModelFactory model_factory,
                 std::unique_ptr<MigrationPolicy> policy)
    : config_(std::move(config)),
      train_(train),
      test_(test),
      topology_(std::move(topology)),
      devices_(std::move(devices)),
      policy_(std::move(policy)),
      partition_(std::move(partition)),
      clients_(topology_.num_clients()),
      budget_(config_.budget),
      faults_(config_.fault),
      rng_(config_.seed),
      pool_(std::max(1, config_.num_threads)),
      journal_(DetachedJournal()) {
  FEDMIGR_CHECK(train_ != nullptr);
  FEDMIGR_CHECK(test_ != nullptr);
  FEDMIGR_CHECK(policy_ != nullptr);
  const int k = topology_.num_clients();
  FEDMIGR_CHECK_EQ(static_cast<int>(partition_.size()), k);
  FEDMIGR_CHECK_EQ(static_cast<int>(devices_.size()), k);
  FEDMIGR_CHECK_GE(config_.agg_period, 1);
  FEDMIGR_CHECK_GE(config_.tau, 1);

  // Shared initialization: one global model, published once into the CoW
  // store (the paper's w_k(0) = w_g(0) — every client starts as an alias).
  util::Rng model_rng = rng_.Split();
  nn::Sequential global = model_factory(&model_rng);
  model_bytes_ = global.ByteSize();
  model_params_ = global.NumParams();
  server_ = std::make_unique<Server>(global, test_);
  store_.Publish(global);

  FEDMIGR_CHECK_GT(config_.client_fraction, 0.0);
  FEDMIGR_CHECK_LE(config_.client_fraction, 1.0);
  FEDMIGR_CHECK_GE(config_.dropout_prob, 0.0);
  FEDMIGR_CHECK_LT(config_.dropout_prob, 1.0);
  FEDMIGR_CHECK_GE(config_.cohort_size, 0);
  FEDMIGR_CHECK_LE(config_.cohort_size, k);
  FEDMIGR_CHECK_GE(config_.quorum_fraction, 0.0);
  FEDMIGR_CHECK_LE(config_.quorum_fraction, 1.0);
  // Fleet churn is a cohort-runtime feature: membership is applied when the
  // round's cohort is built, and departures rely on the lazy/evict slot
  // machinery of the sharded store.
  if (config_.fault.chaos.churn_rate > 0.0) {
    FEDMIGR_CHECK_GT(config_.cohort_size, 0)
        << "fleet churn requires cohort scheduling (cohort_size > 0)";
  }

  if (config_.cohort_size > 0) {
    // Sharded mode: clients stay lazy until their first cohort. Cohorts are
    // the participation sample, so the α-knob must stay at its default.
    FEDMIGR_CHECK_EQ(config_.client_fraction, 1.0);
    cohort_sampler_ = std::make_unique<CohortSampler>(config_.seed, k,
                                                      config_.cohort_size);
  } else {
    identity_.resize(static_cast<size_t>(k));
    std::iota(identity_.begin(), identity_.end(), 0);
    for (int i = 0; i < k; ++i) {
      Client& client = ClientAt(i);
      client.SetModel(store_.aggregate());
      client.SetProximalReference(store_.aggregate_flat());
      provenance_.at(i).lineage = store_.aggregate_lineage();
    }
  }
  // The identity cohort participates from the start; sampled members join
  // when their round begins.
  participating_.assign(static_cast<size_t>(k), !cohort_mode());
  available_ = participating_;
  eligible_ = participating_;

  // Robustness layer. A disabled ReputationTracker is a no-op whose
  // Eligible() is always true.
  aggregator_ = MakeAggregator(config_.robust.aggregator,
                               config_.robust.aggregator_options);
  server_->SetAggregator(aggregator_.get());
  reputation_ = ReputationTracker(config_.robust.reputation, k);
}

void Trainer::SetJournal(obs::Journal* journal) {
  FEDMIGR_CHECK(journal == nullptr || journal->attached())
      << "journal must be Attach()ed before it is set";
  journal_ = journal == nullptr ? DetachedJournal() : journal;
}

Client& Trainer::ClientAt(int i) {
  Client* existing = clients_.Get(i);
  if (existing != nullptr) return *existing;
  auto& slice = partition_[static_cast<size_t>(i)];
  Client* created = clients_.Put(
      i, std::make_unique<Client>(
             i, train_, std::move(slice), config_.learning_rate,
             config_.momentum,
             config_.seed * 1000003ULL + static_cast<uint64_t>(i)));
  slice = std::vector<int>();  // moved-from slot, leave it truly empty
  std::vector<double>& dist = provenance_[i].dist;
  if (dist.empty()) {
    dist.assign(static_cast<size_t>(train_->num_classes()), 0.0);
  }
  if (obs::Telemetry::enabled()) {
    static obs::Gauge* materialized =
        obs::Registry::Default().GetGauge("fl/materialized_models");
    materialized->Set(static_cast<double>(clients_.num_materialized()));
  }
  return *created;
}

Client& Trainer::MaterializedClient(int i) const {
  Client* client = clients_.Get(i);
  FEDMIGR_CHECK(client != nullptr) << "client " << i << " is not materialized";
  return *client;
}

void Trainer::Provenance::Reset(int64_t from) {
  std::fill(dist.begin(), dist.end(), 0.0);
  samples = 0.0;
  lineage = from;
}

void Trainer::BeginRound(int epoch, int64_t round) {
  if (!cohort_mode()) {
    // The identity cohort never changes and received the aggregate when the
    // last round committed; only the α-sample is re-drawn.
    const int k = num_clients();
    const bool everyone = config_.client_fraction >= 1.0;
    std::fill(participating_.begin(), participating_.end(), everyone);
    if (!everyone) {
      const int count = std::max(
          1, static_cast<int>(config_.client_fraction * k + 0.5));
      for (int idx : rng_.SampleWithoutReplacement(k, count)) {
        participating_[static_cast<size_t>(idx)] = true;
      }
    }
    return;
  }
  // Retire the previous cohort (restored verbatim by LoadState on resume).
  const bool churning = config_.fault.chaos.churn_rate > 0.0;
  for (int i : cohort_) {
    participating_[static_cast<size_t>(i)] = false;
    available_[static_cast<size_t>(i)] = false;
    eligible_[static_cast<size_t>(i)] = false;
    // Departure: the member left the fleet between rounds. Its private
    // replica, optimizer and RNG are gone — the slot returns to the lazy
    // state (its data slice is reclaimed), so a later re-join mints a fresh
    // device from the then-current aggregate via the CoW store.
    if (churning && faults_.ChurnedOut(i, round)) {
      Client* materialized = clients_.Get(i);
      if (materialized != nullptr) {
        partition_[static_cast<size_t>(i)] = materialized->indices();
        clients_.Evict(i);
      }
      provenance_.at(i).Reset(0);  // kept, zero-filled, for a re-join
      events_.ClientDeparted(epoch, i);
    } else if (Client* retired = clients_.Get(i)) {
      // A retired member stays materialized but keeps only its snapshot
      // state; the next LocalUpdate re-creates what it frees.
      retired->ReleaseBuffers();
    }
  }
  // Effective roster: the (seed, round)-pure sample minus churned-out
  // members, plus the survivors of an uncommitted round (quorum miss). The
  // sampler itself never sees the churn — determinism of Sample(round) is
  // preserved under any active-set history.
  const std::vector<int> sampled = cohort_sampler_->Sample(round);
  cohort_.clear();
  cohort_.reserve(sampled.size() + carryover_.size());
  for (int i : sampled) {
    if (churning && faults_.ChurnedOut(i, round)) {
      events_.ChurnAbsence(epoch, i);
      continue;
    }
    cohort_.push_back(i);
  }
  std::vector<int> carried;
  if (!carryover_.empty()) {
    const size_t sampled_n = cohort_.size();
    for (int i : carryover_) {
      // A carried member that churned out was already retired (and counted)
      // in the departure loop above — its pending update left with it.
      if (churning && faults_.ChurnedOut(i, round)) continue;
      if (std::binary_search(cohort_.begin(),
                             cohort_.begin() + static_cast<long>(sampled_n),
                             i)) {
        continue;
      }
      carried.push_back(i);
      cohort_.push_back(i);
      events_.ClientCarriedOver(epoch, i);
    }
    std::inplace_merge(cohort_.begin(),
                       cohort_.begin() + static_cast<long>(sampled_n),
                       cohort_.end());
  }
  carryover_.clear();
  events_.CohortSampled(epoch, static_cast<int>(cohort_.size()),
                        static_cast<int>(carried.size()));

  // A sampled cohort's Model Distribution happens here, so only the clients
  // that will actually train download the aggregate. Carryover members keep
  // their pending local update instead of re-syncing: their uncommitted
  // error feedback rides into this round.
  std::vector<int> targets;
  targets.reserve(cohort_.size());
  for (int i : cohort_) {
    participating_[static_cast<size_t>(i)] = true;
    ClientAt(i);
    if (!std::binary_search(carried.begin(), carried.end(), i)) {
      targets.push_back(i);
    }
  }
  budget_.ConsumeTime(DistributeAggregate(epoch, targets));
}

double Trainer::DistributeAggregate(int epoch,
                                    const std::vector<int>& targets) {
  // The aggregate travels only to targets that do not already hold the
  // current block (a re-sampled client that kept its alias downloads
  // nothing). A lost download leaves the client on its stale model (or
  // without a model at all on its first round — it then sits the round
  // out). Each delivery installs an alias of the published block — O(1)
  // per client instead of a deep copy — and resets the replica's
  // provenance.
  double download_seconds = 0.0;
  for (int i : targets) {
    Client& client = MaterializedClient(i);
    if (client.model_ref() == store_.aggregate()) continue;
    const net::TransferResult res = faults_.Transfer(
        net::kServerId, i, model_bytes_, topology_, &traffic_);
    download_seconds = config_.wan_shared
                           ? download_seconds + res.seconds
                           : std::max(download_seconds, res.seconds);
    budget_.ConsumeBandwidth(static_cast<double>(res.bytes));
    if (!res.status.ok()) continue;
    if (res.corrupted && CorruptedPayloadRejected(server_->global_model())) {
      faults_.CountCorruptRejected();
      continue;
    }
    client.SetModel(store_.aggregate());
    client.SetProximalReference(store_.aggregate_flat());
    provenance_.at(i).Reset(store_.aggregate_lineage());
    events_.ModelDistributed(epoch, i, store_.aggregate_lineage());
  }
  return download_seconds;
}

// The run counters as an epoch starts, whose growth its commit publishes,
// and the budget, clock and lineage head once its round has begun, which
// the commit and the policy feedback measure the epoch by.
struct Trainer::EpochStart {
  net::FaultCounters faults;
  RobustCounters robust;
  ChaosCounters chaos;
  TrafficTotals traffic;
  int64_t lineage = 0;
  double compute = 0.0;
  double bandwidth = 0.0;
  double sim_seconds = 0.0;
};

Trainer::EpochStart Trainer::BeginEpoch(int epoch) {
  EpochStart start;
  start.faults = faults_.counters();
  start.robust = counts_.robust;
  start.chaos = counts_.chaos;
  start.traffic = Totals(traffic_);

  // Epoch tick for the injector: crash/straggler rolls happen on its own
  // RNG stream, and the chaos schedule (partition/outage windows) advances
  // here — before BeginRound, so a partition can refuse the round's
  // aggregate downloads.
  faults_.BeginEpoch(num_clients());

  // Chaos window edges: the injector's schedule is pure in the epoch, so
  // an edge is simply this epoch's sealed/down state differing from the
  // previous epoch's — the same comparison on a fresh and a resumed run.
  if (config_.fault.chaos.has_partitions() ||
      config_.fault.chaos.has_outages()) {
    for (int lan = 0; lan < topology_.num_lans(); ++lan) {
      const bool sealed = faults_.LanSealed(lan, epoch);
      const bool was_sealed = epoch > 1 && faults_.LanSealed(lan, epoch - 1);
      if (sealed && !was_sealed) events_.ChaosLanSealed(epoch, lan);
      if (!sealed && was_sealed) events_.ChaosLanOpened(epoch, lan);
    }
    const bool down = faults_.ServerDown(epoch);
    const bool was_down = epoch > 1 && faults_.ServerDown(epoch - 1);
    if (down && !was_down) events_.ChaosServerDown(epoch);
    if (!down && was_down) events_.ChaosServerUp(epoch);
  }

  // A new global iteration starts right after each aggregation.
  if ((epoch - 1) % config_.agg_period == 0) {
    BeginRound(epoch, (epoch - 1) / config_.agg_period);
  }
  // This epoch's availability. Only the round's participants can be
  // available; clients outside a sampled cohort keep the false bits
  // BeginRound left behind. Quarantined clients are carved out of the
  // migration action space the same way crashed ones are: policies only
  // ever see `eligible_`.
  for (int i : active_clients()) {
    const size_t s = static_cast<size_t>(i);
    available_[s] = participating_[s] &&
                    (config_.dropout_prob == 0.0 ||
                     !rng_.Bernoulli(config_.dropout_prob)) &&
                    !faults_.IsCrashed(i);
    eligible_[s] = available_[s] && reputation_.Eligible(i);
  }

  // A publish this epoch moves the store's lineage head; the round commit
  // compares against it.
  start.lineage = store_.aggregate_lineage();
  events_.RoundBegin(epoch, static_cast<int>(active_clients().size()),
                     CountSet(active_clients(), available_), start.lineage);
  start.compute = budget_.compute_used();
  start.bandwidth = budget_.bandwidth_used();
  start.sim_seconds = budget_.time_used();
  return start;
}

double Trainer::LocalUpdatePhase(int epoch) {
  FEDMIGR_TRACE_SCOPE("fl/local_update");
  const std::vector<int>& active = active_clients();
  const int n = static_cast<int>(active.size());
  LocalUpdateOptions options;
  options.epochs = config_.tau;
  options.batch_size = config_.batch_size;
  options.fedprox_mu = config_.fedprox_mu;

  std::vector<LocalUpdateResult> results(static_cast<size_t>(n));
  pool_.ParallelFor(n, [&](int t) {
    const int i = active[static_cast<size_t>(t)];
    if (!available_[static_cast<size_t>(i)]) return;
    Client& client = MaterializedClient(i);
    if (!client.has_model()) return;  // first-round sync download lost
    results[static_cast<size_t>(t)] = client.LocalUpdate(options);
  });

  double loss_weighted = 0.0;
  double total_samples = 0.0;
  double slowest = 0.0;
  for (int t = 0; t < n; ++t) {
    const int i = active[static_cast<size_t>(t)];
    if (!available_[static_cast<size_t>(i)]) continue;
    Client& client = MaterializedClient(i);
    if (!client.has_model()) continue;
    const auto& res = results[static_cast<size_t>(t)];
    const double samples = static_cast<double>(client.num_samples());
    loss_weighted += res.mean_loss * samples;
    total_samples += samples;
    // Recorded from this serial reduction (never the ParallelFor above),
    // so the event order is independent of the pool width.
    Provenance& provenance = provenance_.at(i);
    events_.ClientParticipated(epoch, i, topology_.lan_of(i),
                               provenance.lineage, res.mean_loss);
    budget_.ConsumeCompute(static_cast<double>(res.samples_processed));
    slowest = std::max(
        slowest, net::ComputeSeconds(devices_[static_cast<size_t>(i)],
                                     res.samples_processed, model_params_) *
                     faults_.SlowdownFactor(i));
    // The resident model absorbs this client's distribution. Clients with
    // no local data (possible under extreme partitions) change nothing.
    if (samples > 0.0) {
      provenance.dist =
          data::MixDistributions(provenance.dist, provenance.samples,
                                 client.label_distribution(), samples);
      provenance.samples += samples;
    }
    // Byzantine tampering happens after the honest local update, in place,
    // so a poisoned replica also contaminates any C2C migration of it —
    // exactly the lineage-poisoning exposure fl/robust defends against.
    // Applied here (never in the ParallelFor) from the injector's dedicated
    // attack stream: deterministic, thread-safe, invisible to the trainer
    // RNG.
    if (config_.fault.attacks_enabled() && faults_.IsAttacker(i)) {
      ApplyAttack(config_.fault.attack_mode, config_.fault.attack_scale,
                  faults_.attack_rng(), &client.mutable_model());
      ++counts_.robust.attacked_updates;
    }
  }
  budget_.ConsumeTime(slowest);
  return total_samples > 0.0 ? loss_weighted / total_samples : 0.0;
}

void Trainer::AggregationPhase(int epoch) {
  FEDMIGR_TRACE_SCOPE("fl/aggregate");
  const bool faulty = faults_.enabled();
  const double upload_deadline = config_.fault.upload_deadline_s;
  // Upload: every healthy selected client sends its model over the WAN
  // through the fault-aware path (retries/backoff are charged to traffic
  // and clock). A shared WAN serializes the uploads; independent paths
  // overlap them. Only uploads that survive the link, arrive before the
  // straggler deadline and pass the checksum enter the average; the round
  // is reweighted over whatever arrived. Under cohort scheduling only the
  // C active members upload, and the sample weights below are theirs alone:
  // FedAvg partial participation, where the round average is the
  // sample-weighted mean over the cohort (the 1/C participation factor
  // cancels under the weight normalization).
  double upload_seconds = 0.0;
  int expected = 0;          // participating, reputation-eligible members
  std::vector<int> arrived;  // in cohort order
  for (int i : active_clients()) {
    if (!participating_[static_cast<size_t>(i)]) continue;
    const bool eligible = reputation_.Eligible(i);
    if (eligible) ++expected;
    if (faults_.IsCrashed(i)) continue;
    if (!eligible) {
      // Quarantined: the server refuses the upload outright — no transfer,
      // no traffic, no seat in the aggregate.
      events_.ClientUploaded(epoch, i, obs::UploadStatus::kExcludedQuarantined,
                             model_lineage(i));
      continue;
    }
    Client& client = MaterializedClient(i);
    if (!client.has_model()) continue;
    // Checked here so that mutable_model() clones no aliased replica when
    // DP is off.
    if (config_.dp.enabled()) {
      dp::PrivatizeModel(config_.dp, &client.mutable_model(), &rng_);
    }
    const net::TransferResult res = faults_.Transfer(
        i, net::kServerId, model_bytes_, topology_, &traffic_);
    const double arrival =
        config_.wan_shared ? upload_seconds + res.seconds : res.seconds;
    upload_seconds = config_.wan_shared
                         ? upload_seconds + res.seconds
                         : std::max(upload_seconds, res.seconds);
    budget_.ConsumeBandwidth(static_cast<double>(res.bytes));
    if (!res.status.ok()) continue;  // upload lost after retries
    obs::UploadStatus status = obs::UploadStatus::kArrived;
    if (faulty && arrival > upload_deadline) {
      // The server stopped waiting; the bytes are spent anyway.
      faults_.CountDroppedStraggler();
      status = obs::UploadStatus::kDroppedStraggler;
    } else if (res.corrupted && CorruptedPayloadRejected(client.model())) {
      faults_.CountCorruptRejected();
      status = obs::UploadStatus::kDroppedCorrupt;
    } else {
      arrived.push_back(i);
    }
    events_.ClientUploaded(epoch, i, status, model_lineage(i));
  }
  if (faulty && upload_seconds > upload_deadline) {
    upload_seconds = upload_deadline;
  }

  // Round-progress watchdog: the round commits only when a quorum of the
  // expected uploads arrived before the deadline. On a miss nothing is
  // screened, aggregated, published or distributed — the last published
  // aggregate stands for the whole fleet — and in cohort mode the survivors
  // are carried into the next round so their error feedback is not lost.
  bool commit = true;
  if (config_.quorum_fraction > 0.0) {
    const int count = static_cast<int>(arrived.size());
    const double needed =
        config_.quorum_fraction * static_cast<double>(expected);
    commit = expected == 0 || static_cast<double>(count) + 1e-12 >= needed;
    // The commit threshold with the same tolerance the verdict uses.
    const int required = static_cast<int>(std::ceil(needed - 1e-12));
    if (commit) {
      events_.QuorumCommit(epoch, count, required);
    } else {
      events_.QuorumMiss(epoch, count, required);
      if (cohort_mode()) carryover_ = arrived;
    }
  }

  if (commit) {
    // Ingest screening against the last aggregate: the non-finite gate
    // always runs (one NaN would brick the mean permanently); clipping and
    // the norm/cosine outlier tests follow config_.robust. Verdicts feed the
    // reputation machine; survivors are aggregated (through the installed
    // robust rule, if any). If every upload was lost or rejected this
    // round, the previous global model stands.
    if (!arrived.empty()) {
      std::vector<const nn::Sequential*> models;
      std::vector<double> weights;
      models.reserve(arrived.size());
      for (int i : arrived) {
        const Client& client = MaterializedClient(i);
        models.push_back(&client.model());
        weights.push_back(static_cast<double>(client.num_samples()));
      }
      std::vector<const nn::Sequential*> kept_models;
      std::vector<double> kept_weights;
      std::vector<std::unique_ptr<nn::Sequential>> clipped;
      const std::vector<ScreeningVerdict> verdicts = ScreenUpdates(
          config_.robust.screening, models, weights, server_->global_model(),
          &kept_models, &kept_weights, &clipped, &counts_.robust);
      for (size_t u = 0; u < arrived.size(); ++u) {
        if (verdicts[u].flagged()) {
          reputation_.ReportFlagged(arrived[u]);
        } else {
          reputation_.ReportClean(arrived[u]);
        }
        events_.ScreenVerdict(epoch, arrived[u], verdicts[u].flagged());
      }
      if (!kept_models.empty()) server_->Aggregate(kept_models, kept_weights);
    }
    reputation_.AdvanceRound();
    // The transition log becomes events every round; the quarantine and
    // rehabilitation counts are folded from them.
    for (const ReputationTracker::Transition& t :
         reputation_.DrainTransitions()) {
      events_.QuarantineTransition(epoch, t.client, static_cast<int>(t.from),
                                   static_cast<int>(t.to));
    }
  }
  // Inside this phase's span, where perfbench attributes an aggregation
  // epoch's evaluation, and before the publish, so that its model copy is
  // never alive beside both the old and the new aggregate block.
  EvaluationPhase(epoch, /*aggregated=*/true);

  double download_seconds = 0.0;
  if (commit) {
    // Publish the (possibly refreshed) aggregate into the CoW store: one
    // deep copy + one flatten per aggregation, shared by every alias.
    store_.Publish(server_->global_model());
    events_.ModelPublished(epoch, store_.aggregate_lineage(),
                           store_.parent_lineage());

    // Full participation distributes at commit, to every reachable client —
    // participants or not; a sampled cohort defers it to the next round's
    // BeginRound.
    if (!cohort_mode()) {
      std::vector<int> targets;
      targets.reserve(identity_.size());
      for (int i : identity_) {
        if (!faults_.IsCrashed(i)) targets.push_back(i);
      }
      download_seconds = DistributeAggregate(epoch, targets);
    }
  }
  // The clock charges upload and download as one sum.
  budget_.ConsumeTime(upload_seconds + download_seconds);
}

int Trainer::ApplyMigrationMoves(int epoch, const MigrationPlan& plan,
                                 const MigrationExecution& exec,
                                 const std::vector<int>& ids) {
  // Two-phase capture/install so every move is atomic under faults. Phase 1
  // captures EVERY planned source's payload before installing anything:
  // plans can chain (a <- b while b <- c), so installs must read pre-move
  // state. The capture is a CoW share — the source block is never copied,
  // and demoting the source to a non-owning alias guarantees its later
  // writes can't leak into the receiver. Phase 2 installs the delivered
  // payloads; an undelivered move (link gave up, sealed partition boundary,
  // corrupt payload) is rolled back — the captured ref is dropped and the
  // source re-promotes ownership of its unchanged block. Either the
  // receiver installs the full model or the source retains it: a lineage
  // can never end up orphaned or torn.
  struct Move {
    int src = 0;
    int dst = 0;
    bool delivered = false;
    bool fallback = false;
    ModelRef model;
    Provenance provenance;  // captured pre-move, like the payload itself
  };
  std::vector<Move> moves;
  const int n = static_cast<int>(plan.incoming.size());
  for (int j = 0; j < n; ++j) {
    const int src_local = plan.incoming[static_cast<size_t>(j)];
    if (src_local == j) continue;
    const int src = ids[static_cast<size_t>(src_local)];
    Client& source = MaterializedClient(src);
    if (!source.has_model()) continue;
    Move move;
    move.src = src;
    move.dst = ids[static_cast<size_t>(j)];
    move.delivered = exec.delivered[static_cast<size_t>(j)];
    move.fallback = move.delivered &&
                    static_cast<size_t>(j) < exec.via_fallback.size() &&
                    exec.via_fallback[static_cast<size_t>(j)];
    move.model = source.share_model();
    move.provenance = provenance_.at(src);
    moves.push_back(std::move(move));
  }
  int installed = 0;
  for (Move& move : moves) {
    const int64_t lineage = move.provenance.lineage;
    if (move.delivered) {
      MaterializedClient(move.dst).SetModel(std::move(move.model));
      provenance_.at(move.dst) = std::move(move.provenance);
      ++installed;
      events_.MigrationHop(epoch, move.src, move.dst,
                           move.fallback ? obs::MigrationRoute::kServerFallback
                                         : obs::MigrationRoute::kC2C,
                           lineage);
    } else {
      // Roll back: drop the captured ref, then re-promote the source (a
      // no-op if its block is still aliased elsewhere — exactly the
      // pre-capture ownership state either way).
      move.model = nullptr;
      MaterializedClient(move.src).ReclaimModel();
      events_.MigrationHop(epoch, move.src, move.dst,
                           obs::MigrationRoute::kRolledBack, lineage);
    }
  }
  // The atomicity invariant: every planned source either shipped its block
  // or still holds it — no orphaned lineages.
  for (const Move& move : moves) {
    FEDMIGR_CHECK(MaterializedClient(move.src).has_model())
        << "orphaned migration lineage at client " << move.src;
  }
  return installed;
}

int Trainer::MigrationPhase(int epoch, double loss) {
  FEDMIGR_TRACE_SCOPE("fl/migrate");
  // The policy plans over the participants' local index space [0, n);
  // `ids` maps it back to global client ids, so execution, traffic and
  // fault accounting land on the real fleet. Policies (including the DRL
  // planner, whose candidate features are fixed-dimension) size everything
  // from the context, so a C-client view drives them untouched.
  const std::vector<int>& ids = active_clients();
  const int n = static_cast<int>(ids.size());
  if (n == 0) return 0;
  std::vector<std::vector<double>> client_dists;
  std::vector<std::vector<double>> model_dists;
  // Policies plan over `eligible_`: availability minus quarantine, so a
  // quarantined client is out of the DRL/FLMM action space entirely.
  std::vector<bool> local_eligible(static_cast<size_t>(n));
  client_dists.reserve(static_cast<size_t>(n));
  model_dists.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    const int i = ids[static_cast<size_t>(t)];
    client_dists.push_back(MaterializedClient(i).label_distribution());
    model_dists.push_back(provenance_.at(i).dist);
    local_eligible[static_cast<size_t>(t)] =
        eligible_[static_cast<size_t>(i)];
  }
  // Full participation plans on the real topology, per-link multipliers
  // included. A sampled cohort plans on its induced sub-topology, which
  // inherits LAN membership and base bandwidths; the multipliers then only
  // affect the executed cost below.
  std::optional<net::Topology> sub_topology;
  if (cohort_mode()) {
    net::TopologyConfig sub_config;
    const net::TopologyConfig& full = topology_.config();
    sub_config.intra_lan_mbps = full.intra_lan_mbps;
    sub_config.cross_lan_mbps = full.cross_lan_mbps;
    sub_config.wan_mbps = full.wan_mbps;
    sub_config.link_latency_s = full.link_latency_s;
    sub_config.lan_of.reserve(static_cast<size_t>(n));
    for (int i : ids) sub_config.lan_of.push_back(topology_.lan_of(i));
    sub_topology.emplace(std::move(sub_config));
  }

  PolicyContext ctx;
  ctx.epoch = epoch;
  ctx.topology = sub_topology ? &*sub_topology : &topology_;
  ctx.model_bytes = model_bytes_;
  ctx.client_distributions = &client_dists;
  ctx.model_distributions = &model_dists;
  ctx.global_loss = loss;
  ctx.budget = &budget_;
  ctx.rng = &rng_;
  ctx.available = &local_eligible;

  MigrationPlan plan = policy_->Plan(ctx);
  FEDMIGR_CHECK_EQ(static_cast<int>(plan.incoming.size()), n);
  // Ineligible clients (unavailable or quarantined) neither send nor
  // receive this epoch — a quarantined replica must not migrate, or its
  // poison would outlive the quarantine.
  for (int j = 0; j < n; ++j) {
    const int src = plan.incoming[static_cast<size_t>(j)];
    if (src != j && (!local_eligible[static_cast<size_t>(j)] ||
                     !local_eligible[static_cast<size_t>(src)])) {
      plan.incoming[static_cast<size_t>(j)] = j;
    }
  }
  if (plan.IsIdentity()) return 0;

  // DP noise is added before a model leaves its client.
  if (config_.dp.enabled()) {
    for (size_t j = 0; j < plan.incoming.size(); ++j) {
      const int src = plan.incoming[j];
      if (src == static_cast<int>(j)) continue;
      Client& source = MaterializedClient(ids[static_cast<size_t>(src)]);
      dp::PrivatizeModel(config_.dp, &source.mutable_model(), &rng_);
    }
  }

  MigrationExecution exec =
      ExecuteWithFaults(plan, topology_, model_bytes_, &traffic_, &faults_, ids);
  budget_.ConsumeBandwidth(static_cast<double>(exec.cost.bytes));
  budget_.ConsumeTime(exec.cost.seconds);

  // Corrupted deliveries hit the receiver's checksum: the payload is
  // rejected and the destination keeps the model it already has. A source
  // whose first download was lost has no model to check; ApplyMigrationMoves
  // skips its move.
  for (size_t j = 0; j < exec.delivered.size(); ++j) {
    if (!exec.delivered[j] || !exec.corrupted[j]) continue;
    const Client& source =
        MaterializedClient(ids[static_cast<size_t>(plan.incoming[j])]);
    if (!source.has_model()) continue;
    if (CorruptedPayloadRejected(source.model())) {
      faults_.CountCorruptRejected();
      exec.delivered[j] = false;
    }
  }

  // Move the replicas (and their provenance) according to the plan; a
  // failed move degrades gracefully — the destination keeps its model.
  return ApplyMigrationMoves(epoch, plan, exec, ids);
}

void Trainer::EvaluationPhase(int epoch, bool aggregated) {
  if (config_.eval_every <= 0 ||
      (epoch % config_.eval_every != 0 && epoch != config_.max_epochs)) {
    return;
  }
  FEDMIGR_TRACE_SCOPE("fl/evaluate");
  // Off aggregation epochs the measured model is the virtual aggregate of
  // the local models. Quarantined replicas and non-finite models are
  // measurement poison: one NaN coordinate would turn the whole virtual
  // aggregate (and the reported accuracy) into NaN. Both gates are no-ops
  // on a clean run.
  std::vector<const nn::Sequential*> models;
  std::vector<double> weights;
  if (!aggregated) {
    for (int i : active_clients()) {
      if (!reputation_.Eligible(i)) continue;
      const Client& client = MaterializedClient(i);
      if (!client.has_model()) continue;
      if (!ParamsFinite(client.model())) continue;
      models.push_back(&client.model());
      weights.push_back(static_cast<double>(client.num_samples()));
    }
  }
  Evaluation eval;
  if (models.empty()) {
    eval = server_->EvaluateGlobal(config_.batch_size * 2);
  } else {
    nn::Sequential aggregate = server_->global_model();
    WeightedMean(models, weights, &aggregate);
    eval = server_->Evaluate(aggregate, config_.batch_size * 2);
  }
  progress_.last_accuracy = eval.accuracy;
  progress_.last_test_loss = eval.loss;
}

void Trainer::CloseEpoch(const EpochStart& start, double sim_after_update,
                        EpochRecord* record) {
  const int epoch = record->epoch;
  record->test_accuracy = progress_.last_accuracy;
  record->test_loss = progress_.last_test_loss;
  record->cumulative_time_s = budget_.time_used();
  record->cumulative_traffic_gb =
      static_cast<double>(traffic_.total_bytes()) / 1e9;
  result_.history.push_back(*record);

  // The round commit closes the epoch's events: they are folded into the
  // run counters before the telemetry block publishes their growth, and
  // persisted before the hook may snapshot — Attach(epoch) then keeps
  // exactly the chunks committed so far, so kill-anywhere resume replays
  // to a byte-equal journal.
  events_.RoundCommitted(epoch, CountSet(active_clients(), participating_),
                         store_.aggregate_lineage() != start.lineage,
                         store_.aggregate_lineage(), record->train_loss);
  for (const obs::JournalEvent& event : events_.events()) {
    obs::FoldEvent(event, &counts_);
  }
  const util::Status committed = journal_->CommitEpoch(epoch, events_.events());
  FEDMIGR_CHECK(committed.ok())
      << "journal commit failed: " << committed.message();
  events_.Clear();

  if (!obs::Telemetry::enabled()) return;
  // Simulated-time spans go on the pid-2 tracks so a trace shows what the
  // simulation modelled next to what the host actually spent.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  if (recorder.recording()) {
    const double sim_epoch_end = budget_.time_used();
    recorder.RecordSimSpan("epoch " + std::to_string(epoch), "fl/epoch",
                           start.sim_seconds, sim_epoch_end);
    recorder.RecordSimSpan("local_update", "fl/phase", start.sim_seconds,
                           sim_after_update);
    recorder.RecordSimSpan(record->aggregated ? "aggregate" : "migrate",
                           "fl/phase", sim_after_update, sim_epoch_end);
  }
  static obs::Counter* epochs_run =
      obs::Registry::Default().GetCounter("fl/epochs_run");
  static obs::Counter* aggregations =
      obs::Registry::Default().GetCounter("fl/aggregations");
  static obs::Counter* migrations_applied =
      obs::Registry::Default().GetCounter("fl/migrations_applied");
  static obs::Gauge* train_loss =
      obs::Registry::Default().GetGauge("fl/train_loss");
  static obs::Gauge* test_accuracy =
      obs::Registry::Default().GetGauge("fl/test_accuracy");
  epochs_run->Increment();
  if (record->aggregated) aggregations->Increment();
  migrations_applied->Add(record->migrations);
  train_loss->Set(record->train_loss);
  test_accuracy->Set(record->test_accuracy);
  PublishGrowth(kFaultSeries, start.faults, faults_.counters());
  PublishGrowth(kRobustSeries, start.robust, counts_.robust);
  PublishGrowth(kChaosSeries, start.chaos, counts_.chaos);
  PublishGrowth(kTrafficSeries, start.traffic, Totals(traffic_));
  if (config_.fault.chaos.enabled()) {
    static obs::Gauge* partitions_active =
        obs::Registry::Default().GetGauge("net/chaos_partitions_active");
    static obs::Gauge* server_down =
        obs::Registry::Default().GetGauge("net/chaos_server_down");
    partitions_active->Set(faults_.ActivePartitions(faults_.epoch()));
    server_down->Set(faults_.ServerDown(faults_.epoch()) ? 1 : 0);
  }
  obs::UpdateResourceGauges();
}

bool Trainer::FinishEpoch(const EpochStart& start, const EpochRecord& record) {
  const int epoch = record.epoch;
  result_.best_accuracy =
      std::max(result_.best_accuracy, progress_.last_accuracy);
  result_.epochs_run = epoch;

  // Reward feedback for learned policies.
  PolicyFeedback feedback;
  feedback.epoch = epoch;
  feedback.loss_before = progress_.previous_loss < 0.0
                             ? record.train_loss
                             : progress_.previous_loss;
  feedback.loss_after = record.train_loss;
  const double cb = budget_.compute_budget();
  const double bb = budget_.bandwidth_budget();
  feedback.compute_cost_fraction =
      std::isinf(cb) ? 0.0 : (budget_.compute_used() - start.compute) / cb;
  feedback.bandwidth_cost_fraction =
      std::isinf(bb) ? 0.0 : (budget_.bandwidth_used() - start.bandwidth) / bb;
  progress_.previous_loss = record.train_loss;

  const bool target_hit = config_.target_accuracy > 0.0 &&
                          progress_.last_accuracy >= config_.target_accuracy;
  if (target_hit && !result_.reached_target) {
    if (obs::Telemetry::enabled()) {
      obs::TraceRecorder::Default().RecordInstant("fl/target_reached");
    }
    result_.reached_target = true;
    result_.epochs_to_target = epoch;
    result_.time_to_target_s = budget_.time_used();
    result_.traffic_to_target_gb =
        static_cast<double>(traffic_.total_bytes()) / 1e9;
  }
  const bool exhausted = budget_.Exhausted();
  result_.budget_exhausted = exhausted;
  progress_.done = target_hit || exhausted || epoch == config_.max_epochs;
  feedback.done = progress_.done;
  feedback.success = progress_.done && !exhausted;
  policy_->Feedback(feedback);

  // The epoch is now fully accounted for; a snapshot taken here (by the
  // hook) resumes at next_epoch.
  progress_.next_epoch = epoch + 1;
  return !epoch_hook_ || epoch_hook_(*this, epoch) || progress_.done;
}

RunResult Trainer::Run() {
  result_.scheme = config_.scheme_name;
  result_.interrupted = false;

  // The epoch hook may install or detach the journal between epochs (the
  // overhead harness in bench_telemetry toggles it per epoch), so journal_
  // is read afresh at each commit. A journal attached here gets the header.
  obs::JournalHeader header;
  header.run_seed = config_.seed;
  header.num_clients = num_clients();
  header.cohort_size = config_.cohort_size;
  header.scheme = config_.scheme_name;
  journal_->BeginRun(header);

  // The epoch of Sec. II-B: Local Updating, then Model Distribution and
  // Global Aggregation every agg_period epochs (and at the last one), Model
  // Migration otherwise. Begin, commit and finish run outside every phase
  // span.
  for (int epoch = progress_.next_epoch;
       !progress_.done && epoch <= config_.max_epochs; ++epoch) {
    FEDMIGR_TRACE_SCOPE("fl/epoch");
    const EpochStart start = BeginEpoch(epoch);
    EpochRecord record;
    record.epoch = epoch;
    record.aggregated =
        epoch % config_.agg_period == 0 || epoch == config_.max_epochs;
    record.train_loss = LocalUpdatePhase(epoch);
    const double sim_after_update = budget_.time_used();
    if (record.aggregated) {
      AggregationPhase(epoch);
    } else {
      record.migrations = MigrationPhase(epoch, record.train_loss);
      EvaluationPhase(epoch, /*aggregated=*/false);
    }
    CloseEpoch(start, sim_after_update, &record);
    if (!FinishEpoch(start, record)) {
      result_.interrupted = true;
      break;
    }
  }

  // Clean completion seals the journal with the summary chunk; an
  // interrupted run only syncs — the resumed run appends the rest.
  const util::Status sealed = progress_.done && !result_.interrupted
                                  ? journal_->EndRun()
                                  : journal_->Finish();
  FEDMIGR_CHECK(sealed.ok()) << "journal finalize failed: "
                             << sealed.message();

  result_.final_accuracy = progress_.last_accuracy;
  result_.time_s = budget_.time_used();
  result_.compute_units = budget_.compute_used();
  result_.traffic_gb = static_cast<double>(traffic_.total_bytes()) / 1e9;
  result_.c2s_gb = traffic_.c2s_gb();
  result_.c2c_gb = traffic_.c2c_gb();
  result_.c2s_up_gb = traffic_.c2s_up_gb();
  result_.c2s_down_gb = traffic_.c2s_down_gb();
  result_.traffic = traffic_;
  result_.faults = faults_.counters();
  result_.robust = counts_.robust;
  result_.chaos = counts_.chaos;
  if (reputation_.enabled()) {
    result_.first_quarantine_round.assign(static_cast<size_t>(num_clients()),
                                          -1);
    for (int i = 0; i < num_clients(); ++i) {
      result_.first_quarantine_round[static_cast<size_t>(i)] =
          reputation_.first_quarantine_round(i);
    }
  }
  if (obs::Telemetry::enabled()) {
    result_.metrics = obs::Registry::Default().Snapshot();
  }
  return result_;
}

namespace {

// Order-sensitive splitmix64 fold of the chaos schedule: two trainers agree
// on this iff they would replay the same partition/outage/churn timeline,
// which is exactly what a byte-identical resume needs.
uint64_t ChaosScheduleFingerprint(const net::ChaosConfig& chaos) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
  };
  for (const net::PartitionWindow& w : chaos.partitions) {
    mix(static_cast<uint64_t>(w.lan));
    mix(static_cast<uint64_t>(w.start_epoch));
    mix(static_cast<uint64_t>(w.duration_epochs));
  }
  mix(static_cast<uint64_t>(chaos.partition_period));
  mix(static_cast<uint64_t>(chaos.partition_phase));
  mix(static_cast<uint64_t>(chaos.partition_lan));
  mix(static_cast<uint64_t>(chaos.partition_epochs));
  for (const net::OutageWindow& w : chaos.outages) {
    mix(static_cast<uint64_t>(w.start_epoch));
    mix(static_cast<uint64_t>(w.duration_epochs));
  }
  mix(static_cast<uint64_t>(chaos.outage_period));
  mix(static_cast<uint64_t>(chaos.outage_phase));
  mix(static_cast<uint64_t>(chaos.outage_epochs));
  uint64_t churn_bits = 0;
  static_assert(sizeof(churn_bits) == sizeof(chaos.churn_rate));
  std::memcpy(&churn_bits, &chaos.churn_rate, sizeof(churn_bits));
  mix(churn_bits);
  mix(chaos.churn_seed);
  return h;
}

}  // namespace

// Stand-ins for the fields LoadState stages, named as on Trainer so that
// VisitState reads the same expressions from either.
struct Trainer::Staged {
  explicit Staged(const Trainer& t)
      : budget_(t.config_.budget),
        faults_(t.config_.fault),
        global_(t.server_->global_model()),
        reputation_(t.config_.robust.reputation, t.num_clients()) {
    result_.scheme = t.config_.scheme_name;
  }

  RunProgress progress_;
  RunResult result_;
  util::Rng rng_{0};
  net::Budget budget_;
  net::TrafficAccountant traffic_;
  net::FaultInjector faults_;
  std::vector<bool> participating_;
  std::vector<bool> available_;
  std::map<int, Provenance> provenance_;
  nn::Sequential global_;
  obs::EventCounts counts_;
  ReputationTracker reputation_;
  std::vector<int> cohort_;
  std::vector<int> carryover_;
  int64_t next_lineage_id_ = 0;
  int64_t aggregate_lineage_ = 0;
  int64_t parent_lineage_ = 0;
};

template <class Ar, class S>
util::Status Trainer::VisitState(Ar& ar, S& s) {
  const size_t k = static_cast<size_t>(num_clients());
  // Fingerprint: a snapshot may only be restored into a trainer built from
  // the same workload and schedule.
  uint32_t version = kTrainerStateVersion;
  ar.Io(version);
  ar.Check(version == kTrainerStateVersion,
           "unsupported trainer state version");
  std::string scheme = config_.scheme_name;
  uint32_t clients = static_cast<uint32_t>(k);
  int64_t params = model_params_;
  uint64_t seed = config_.seed;
  int32_t agg_period = config_.agg_period;
  int32_t max_epochs = config_.max_epochs;
  int32_t cohort_size = config_.cohort_size;
  double quorum_fraction = config_.quorum_fraction;
  const uint64_t chaos = ChaosScheduleFingerprint(config_.fault.chaos);
  uint64_t chaos_fingerprint = chaos;
  ar.Io(scheme);
  ar.Io(clients);
  ar.Io(params);
  ar.Io(seed);
  ar.Io(agg_period);
  ar.Io(max_epochs);
  ar.Io(cohort_size);
  ar.Io(quorum_fraction);
  ar.Io(chaos_fingerprint);
  ar.Check(scheme == config_.scheme_name && clients == k &&
               params == model_params_ && seed == config_.seed &&
               agg_period == config_.agg_period &&
               max_epochs == config_.max_epochs &&
               cohort_size == config_.cohort_size &&
               quorum_fraction == config_.quorum_fraction &&
               chaos_fingerprint == chaos,
           "snapshot fingerprint does not match this trainer");

  // Run progress and accumulated result.
  ar.Io(s.progress_.next_epoch);
  ar.Io(s.progress_.last_accuracy);
  ar.Io(s.progress_.last_test_loss);
  ar.Io(s.progress_.previous_loss);
  ar.Io(s.progress_.done);
  ar.Io(s.result_.best_accuracy);
  ar.Io(s.result_.epochs_run);
  ar.Io(s.result_.reached_target);
  ar.Io(s.result_.epochs_to_target);
  ar.Io(s.result_.time_to_target_s);
  ar.Io(s.result_.traffic_to_target_gb);
  ar.Io(s.result_.budget_exhausted);
  ar.Check(s.progress_.next_epoch >= 1 &&
               s.progress_.next_epoch <= config_.max_epochs + 1,
           "snapshot epoch out of range");
  ar.Io(s.result_.history);
  ar.Check(s.result_.history.size() <= static_cast<size_t>(config_.max_epochs),
           "snapshot history too long");

  // Simulation state.
  ar.Io(s.rng_);
  ar.Io(s.budget_);
  ar.Io(s.traffic_);
  ar.Io(s.faults_);
  ar.Check([&] { return s.faults_.ValidFor(static_cast<int>(k)); },
           "snapshot fault client ids malformed");
  // The effective cohort must be stored (not recomputed): under churn and
  // quorum carryover it is no longer a pure function of (seed, round), and
  // a kill inside a round must resume with exactly the members that were
  // active when the round began.
  ar.Io(s.cohort_);
  const auto in_fleet = [k](const std::vector<int>& ids) {
    return std::all_of(ids.begin(), ids.end(), [k](int i) {
      return i >= 0 && static_cast<size_t>(i) < k;
    });
  };
  ar.Check([&] { return in_fleet(s.cohort_); },
           "snapshot cohort id out of range");
  if (!ar.ok()) return ar.status();
  // Participation bits of the active clients; every other client's are
  // false, since BeginRound clears a retired cohort's.
  const std::vector<int>& active = cohort_mode() ? s.cohort_ : identity_;
  if constexpr (Ar::kLoading) {
    s.participating_.assign(k, false);
    s.available_.assign(k, false);
  }
  for (size_t j = 0, n = ar.Repeat(active.size()); j < n; ++j) {
    const size_t i = j < active.size() ? static_cast<size_t>(active[j]) : 0;
    bool participating = s.participating_[i];
    bool available = s.available_[i];
    ar.Io(participating);
    ar.Io(available);
    if constexpr (Ar::kLoading) {
      s.participating_[i] = participating;
      s.available_[i] = available;
    }
  }
  ar.Io(s.provenance_);
  const size_t classes = static_cast<size_t>(train_->num_classes());
  ar.Check(
      [&] {
        return std::all_of(s.provenance_.begin(), s.provenance_.end(),
                           [&](const auto& record) {
                             return record.first >= 0 &&
                                    static_cast<size_t>(record.first) < k &&
                                    record.second.dist.size() == classes;
                           });
      },
      "snapshot provenance record malformed");

  // Models: the server's, then each materialized client's id and record, in
  // id order. Replicas that still alias the current aggregate block skip
  // the parameter payload (the block is rebuilt from the server model on
  // load).
  if constexpr (Ar::kLoading) {
    nn::IoParams(ar, &s.global_);
    if (!ar.ok()) return ar.status();
    // Re-publish before the client records: aliased replicas re-attach to
    // this block. Clients and the policy load in place from here on.
    store_.Publish(s.global_);
  } else {
    nn::IoParams(ar, &server_->global_model());
  }
  std::vector<int> listed;
  if constexpr (!Ar::kLoading) {
    for (const auto& [i, provenance] : provenance_) {
      if (clients_.Get(i) != nullptr) listed.push_back(i);
    }
  }
  uint64_t count = listed.size();
  ar.Io(count);
  int32_t previous = -1;  // ids strictly increase, so at most K are read
  for (size_t j = 0, n = ar.Repeat(count); j < n && ar.ok(); ++j) {
    int32_t id = j < listed.size() ? listed[j] : 0;
    ar.Io(id);
    ar.Check(id > previous && static_cast<size_t>(id) < k,
             "snapshot client id out of order or range");
    previous = id;
    ar.Check([&] { return s.provenance_.contains(id); },
             "snapshot client has no provenance record");
    if (!ar.ok()) return ar.status();
    Client* client = clients_.Get(id);
    if constexpr (Ar::kLoading) {
      client = &ClientAt(id);
      listed.push_back(id);
    }
    std::optional<Client> stand_in;  // digest of a trainer holding no client
    if constexpr (Ar::kSchema) {
      if (client == nullptr) {
        client = &stand_in.emplace(id, train_, std::vector<int>(),
                                   config_.learning_rate, config_.momentum,
                                   config_.seed);
      }
    }
    // Errors stick to `ar`.
    (void)client->Visit(ar, store_.aggregate(), store_.aggregate_flat());
  }
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return ar.status();
    // A client materialized here but not in the snapshot predates its first
    // cohort there: reclaim the data slice and return the slot to the lazy
    // state.
    for (const auto& [i, provenance] : provenance_) {
      Client* client = clients_.Get(i);
      if (client != nullptr &&
          !std::binary_search(listed.begin(), listed.end(), i)) {
        partition_[static_cast<size_t>(i)] = client->indices();
        clients_.Evict(i);
      }
    }
  }

  // Policy state rides as a length-prefixed blob so the container framing
  // survives even if a policy's stream is malformed.
  std::vector<uint8_t> policy_bytes;
  if constexpr (!Ar::kLoading) {
    util::ByteWriter policy_writer;
    policy_->SaveState(&policy_writer);
    policy_bytes = policy_writer.TakeBytes();
  }
  ar.Io(policy_bytes);
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return ar.status();
    util::ByteReader policy_reader(policy_bytes);
    ar.Fail(policy_->LoadState(&policy_reader));
  }

  // v2: robustness layer (counters + reputation). `eligible_` is derived
  // state, recomputed from availability and reputation on load.
  ar.Io(s.counts_.robust);
  ar.Io(s.reputation_);

  // v4: chaos layer (the cohort rides with the participation bits above).
  ar.Io(s.counts_.chaos);
  ar.Io(s.carryover_);
  ar.Check([&] { return in_fleet(s.carryover_); },
           "snapshot carryover id out of range");
  ar.Check(cohort_mode() || (s.cohort_.empty() && s.carryover_.empty()),
           "snapshot carries a cohort but this trainer runs full "
           "participation");

  // v5: the model store's lineage mint state for the flight recorder.
  int64_t next_lineage_id = store_.next_lineage_id();
  int64_t aggregate_lineage = store_.aggregate_lineage();
  int64_t parent_lineage = store_.parent_lineage();
  ar.Io(next_lineage_id);
  ar.Io(aggregate_lineage);
  ar.Io(parent_lineage);
  ar.Check(next_lineage_id >= 1 && aggregate_lineage < next_lineage_id &&
               parent_lineage < next_lineage_id,
           "snapshot lineage ids inconsistent");
  if constexpr (Ar::kLoading) {
    s.next_lineage_id_ = next_lineage_id;
    s.aggregate_lineage_ = aggregate_lineage;
    s.parent_lineage_ = parent_lineage;
  }
  return ar.status();
}

template <class Ar>
util::Status Trainer::Visit(Ar& ar) {
  if constexpr (Ar::kLoading) {
    Staged staged(*this);
    FEDMIGR_RETURN_IF_ERROR(VisitState(ar, staged));
    Commit(std::move(staged));
    return util::Status::Ok();
  } else {
    return VisitState(ar, *this);
  }
}

FEDMIGR_INSTANTIATE_VISIT(Trainer);

void Trainer::Commit(Staged&& s) {
  progress_ = s.progress_;
  result_ = std::move(s.result_);
  rng_ = s.rng_;
  budget_ = s.budget_;
  traffic_ = std::move(s.traffic_);
  faults_ = std::move(s.faults_);
  participating_ = std::move(s.participating_);
  available_ = std::move(s.available_);
  provenance_ = std::move(s.provenance_);
  server_->global_model() = std::move(s.global_);
  counts_ = s.counts_;
  reputation_ = std::move(s.reputation_);
  for (size_t i = 0; i < eligible_.size(); ++i) {
    eligible_[i] =
        available_[i] && reputation_.Eligible(static_cast<int>(i));
  }
  // The effective cohort is restored, not recomputed: under churn and
  // quorum carryover only the snapshot knows who was active mid-round.
  cohort_ = std::move(s.cohort_);
  carryover_ = std::move(s.carryover_);
  // The re-publish in VisitState minted a throwaway id; restore the mint
  // counter and the aggregate/parent heads the snapshot recorded so the
  // next publish continues the same id sequence.
  store_.RestoreLineage(s.next_lineage_id_, s.aggregate_lineage_,
                        s.parent_lineage_);
}

void Trainer::SaveState(util::ByteWriter* writer) const {
  util::Save(*this, writer);
}

util::Status Trainer::LoadState(util::ByteReader* reader) {
  FEDMIGR_RETURN_IF_ERROR(util::Load(reader, this));
  // Client::Visit restored every private block with gradient buffers; the
  // members outside the restored cohort free them again, as they had when
  // they retired.
  const std::vector<int>& active = active_clients();
  for (const auto& [i, provenance] : provenance_) {
    Client* client = clients_.Get(i);
    if (client != nullptr &&
        !std::binary_search(active.begin(), active.end(), i)) {
      client->ReleaseBuffers();
    }
  }
  return util::Status::Ok();
}

}  // namespace fedmigr::fl
