#include "fl/trainer.h"

#include <algorithm>
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
      pool_(std::max(1, config_.num_threads)) {
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
  model_lineage_.assign(static_cast<size_t>(k), 0);

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
    // Sharded mode: clients stay lazy until their first cohort; provenance
    // slots hold empty vectors until then. Cohorts are the participation
    // sample, so the α-knob must stay at its default.
    FEDMIGR_CHECK_EQ(config_.client_fraction, 1.0);
    cohort_sampler_ = std::make_unique<CohortSampler>(config_.seed, k,
                                                      config_.cohort_size);
    model_distributions_.assign(static_cast<size_t>(k),
                                std::vector<double>());
  } else {
    identity_.resize(static_cast<size_t>(k));
    std::iota(identity_.begin(), identity_.end(), 0);
    model_distributions_.assign(
        static_cast<size_t>(k),
        std::vector<double>(static_cast<size_t>(train_->num_classes()), 0.0));
    for (int i = 0; i < k; ++i) {
      Client& client = ClientAt(i);
      client.SetModel(store_.aggregate());
      client.SetProximalReference(store_.aggregate_flat());
      model_lineage_[static_cast<size_t>(i)] = store_.aggregate_lineage();
    }
  }
  // The identity cohort participates from the start; sampled members join
  // when their round begins.
  participating_.assign(static_cast<size_t>(k), !cohort_mode());
  available_ = participating_;
  eligible_ = participating_;
  model_samples_.assign(static_cast<size_t>(k), 0.0);

  // Robustness layer. The Mean default installs nothing so the server runs
  // the literal legacy aggregation path; a disabled ReputationTracker is a
  // no-op whose Eligible() is always true.
  if (config_.robust.aggregator != AggregatorKind::kMean) {
    aggregator_ = MakeAggregator(config_.robust.aggregator,
                                 config_.robust.aggregator_options);
    server_->SetAggregator(aggregator_.get());
  }
  reputation_ = ReputationTracker(config_.robust.reputation, k);
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
  auto& dist = model_distributions_[static_cast<size_t>(i)];
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

void Trainer::ResampleParticipants() {
  const int k = num_clients();
  if (config_.client_fraction >= 1.0) {
    std::fill(participating_.begin(), participating_.end(), true);
    return;
  }
  const int count = std::max(
      1, static_cast<int>(config_.client_fraction * k + 0.5));
  std::fill(participating_.begin(), participating_.end(), false);
  for (int idx : rng_.SampleWithoutReplacement(k, count)) {
    participating_[static_cast<size_t>(idx)] = true;
  }
}

void Trainer::BeginRound(int64_t round) {
  if (!cohort_mode()) {
    // The identity cohort never changes and received the aggregate when the
    // last round committed; only the α-sample is re-drawn.
    ResampleParticipants();
    return;
  }
  // The epoch this round boundary executes in (BeginRound only runs on
  // boundary epochs) — the stamp for everything journaled below.
  const int epoch = static_cast<int>(round) * config_.agg_period + 1;
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
      auto& dist = model_distributions_[static_cast<size_t>(i)];
      std::fill(dist.begin(), dist.end(), 0.0);
      model_samples_[static_cast<size_t>(i)] = 0.0;
      model_lineage_[static_cast<size_t>(i)] = 0;
      CountChurnDeparture(&chaos_counters_);
      if (journal_ != nullptr) journal_->ClientDeparted(epoch, i);
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
      CountChurnAbsence(&chaos_counters_);
      if (journal_ != nullptr) journal_->ChurnAbsence(epoch, i);
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
      CountCarryoverClient(&chaos_counters_);
      if (journal_ != nullptr) journal_->ClientCarriedOver(epoch, i);
    }
    std::inplace_merge(cohort_.begin(),
                       cohort_.begin() + static_cast<long>(sampled_n),
                       cohort_.end());
  }
  carryover_.clear();
  cohort_round_ = round;
  if (journal_ != nullptr) {
    journal_->CohortSampled(epoch, static_cast<int>(cohort_.size()),
                            static_cast<int>(carried.size()));
  }

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
    auto& dist = model_distributions_[static_cast<size_t>(i)];
    std::fill(dist.begin(), dist.end(), 0.0);
    model_samples_[static_cast<size_t>(i)] = 0.0;
    model_lineage_[static_cast<size_t>(i)] = store_.aggregate_lineage();
    if (journal_ != nullptr) {
      journal_->ModelDistributed(epoch, i, store_.aggregate_lineage());
    }
  }
  return download_seconds;
}

void Trainer::RollAvailability() {
  // Only the round's participants can be available; clients outside a
  // sampled cohort keep the false bits BeginRound left behind.
  // Quarantined clients are carved out of the migration action space the
  // same way crashed ones are: policies only ever see `eligible_`.
  for (int i : active_clients()) {
    const size_t s = static_cast<size_t>(i);
    available_[s] = participating_[s] &&
                    (config_.dropout_prob == 0.0 ||
                     !rng_.Bernoulli(config_.dropout_prob)) &&
                    !faults_.IsCrashed(i);
    eligible_[s] = available_[s] && reputation_.Eligible(i);
  }
}

void Trainer::ApplyDp(nn::Sequential* model) {
  if (!config_.dp.enabled()) return;
  dp::PrivatizeModel(config_.dp, model, &rng_);
}

double Trainer::LocalUpdatePhase(int epoch, double* phase_seconds) {
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
    // Journaled from this serial reduction (never the ParallelFor above),
    // so the event order is independent of the pool width.
    if (journal_ != nullptr) {
      journal_->ClientParticipated(epoch, i, topology_.lan_of(i),
                                   model_lineage_[static_cast<size_t>(i)],
                                   res.mean_loss);
    }
    budget_.ConsumeCompute(static_cast<double>(res.samples_processed));
    slowest = std::max(
        slowest, net::ComputeSeconds(devices_[static_cast<size_t>(i)],
                                     res.samples_processed, model_params_) *
                     faults_.SlowdownFactor(i));
    // The resident model absorbs this client's distribution. Clients with
    // no local data (possible under extreme partitions) change nothing.
    if (samples > 0.0) {
      auto& dist = model_distributions_[static_cast<size_t>(i)];
      dist = data::MixDistributions(dist, model_samples_[static_cast<size_t>(i)],
                                    client.label_distribution(), samples);
      model_samples_[static_cast<size_t>(i)] += samples;
    }
  }
  // Byzantine tampering happens after the honest local update, in place, so
  // a poisoned replica also contaminates any C2C migration of it — exactly
  // the lineage-poisoning exposure fl/robust defends against. Applied
  // serially (outside the ParallelFor) from the injector's dedicated attack
  // stream: deterministic, thread-safe, invisible to the trainer RNG.
  if (config_.fault.attacks_enabled()) {
    for (int i : active) {
      if (!available_[static_cast<size_t>(i)] || !faults_.IsAttacker(i)) {
        continue;
      }
      Client& client = MaterializedClient(i);
      if (!client.has_model()) continue;
      ApplyAttack(config_.fault.attack_mode, config_.fault.attack_scale,
                  faults_.attack_rng(), &client.mutable_model());
      CountAttackedUpdate(&robust_counters_);
    }
  }

  budget_.ConsumeTime(slowest);
  *phase_seconds = slowest;
  return total_samples > 0.0 ? loss_weighted / total_samples : 0.0;
}

Evaluation Trainer::AggregationPhase(int epoch, bool evaluate) {
  FEDMIGR_TRACE_SCOPE("fl/aggregate");
  const int k = num_clients();
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
  const std::vector<int>& active = active_clients();
  double upload_seconds = 0.0;
  std::vector<bool> arrived(static_cast<size_t>(k), false);
  for (int i : active) {
    if (!participating_[static_cast<size_t>(i)]) continue;
    if (faulty && faults_.IsCrashed(i)) continue;
    if (!reputation_.Eligible(i)) {
      // Quarantined: the server refuses the upload outright — no transfer,
      // no traffic, no seat in the aggregate.
      CountQuarantineExcluded(&robust_counters_);
      if (journal_ != nullptr) {
        journal_->ClientUploaded(epoch, i,
                                 obs::UploadStatus::kExcludedQuarantined,
                                 model_lineage_[static_cast<size_t>(i)]);
      }
      continue;
    }
    Client& client = MaterializedClient(i);
    if (!client.has_model()) continue;
    if (config_.dp.enabled()) ApplyDp(&client.mutable_model());
    const net::TransferResult res = faults_.Transfer(
        i, net::kServerId, model_bytes_, topology_, &traffic_);
    const double arrival =
        config_.wan_shared ? upload_seconds + res.seconds : res.seconds;
    upload_seconds = config_.wan_shared
                         ? upload_seconds + res.seconds
                         : std::max(upload_seconds, res.seconds);
    budget_.ConsumeBandwidth(static_cast<double>(res.bytes));
    if (!res.status.ok()) continue;  // upload lost after retries
    if (faulty && arrival > upload_deadline) {
      // The server stopped waiting; the bytes are spent anyway.
      faults_.CountDroppedStraggler();
      if (journal_ != nullptr) {
        journal_->ClientUploaded(epoch, i,
                                 obs::UploadStatus::kDroppedStraggler,
                                 model_lineage_[static_cast<size_t>(i)]);
      }
      continue;
    }
    if (res.corrupted && CorruptedPayloadRejected(client.model())) {
      faults_.CountCorruptRejected();
      if (journal_ != nullptr) {
        journal_->ClientUploaded(epoch, i, obs::UploadStatus::kDroppedCorrupt,
                                 model_lineage_[static_cast<size_t>(i)]);
      }
      continue;
    }
    arrived[static_cast<size_t>(i)] = true;
    if (journal_ != nullptr) {
      journal_->ClientUploaded(epoch, i, obs::UploadStatus::kArrived,
                               model_lineage_[static_cast<size_t>(i)]);
    }
  }
  if (faulty && upload_seconds > upload_deadline) {
    upload_seconds = upload_deadline;
  }

  // Round-progress watchdog: the round commits only when a quorum of the
  // expected uploads arrived before the deadline. On a miss nothing is
  // screened, aggregated or published — the last published aggregate stands
  // for the whole fleet — and in cohort mode the survivors are carried into
  // the next round so their error feedback is not lost.
  if (config_.quorum_fraction > 0.0) {
    int expected = 0;
    int arrived_count = 0;
    for (int i : active) {
      const size_t s = static_cast<size_t>(i);
      if (participating_[s] && reputation_.Eligible(i)) ++expected;
      if (arrived[s]) ++arrived_count;
    }
    const bool quorum_met =
        expected == 0 ||
        static_cast<double>(arrived_count) + 1e-12 >=
            config_.quorum_fraction * static_cast<double>(expected);
    // The commit threshold with the same tolerance the verdict uses.
    const int required = static_cast<int>(
        std::ceil(config_.quorum_fraction * static_cast<double>(expected) -
                  1e-12));
    if (!quorum_met) {
      CountQuorumMiss(&chaos_counters_);
      if (journal_ != nullptr) {
        journal_->QuorumMiss(epoch, arrived_count, required);
      }
      if (cohort_mode()) {
        carryover_.clear();
        for (int i : active) {
          if (arrived[static_cast<size_t>(i)]) carryover_.push_back(i);
        }
      }
      budget_.ConsumeTime(upload_seconds);
      Evaluation eval;
      if (evaluate) {
        FEDMIGR_TRACE_SCOPE("fl/evaluate");
        eval = server_->EvaluateGlobal(config_.batch_size * 2);
      }
      return eval;
    }
    CountQuorumCommit(&chaos_counters_);
    if (journal_ != nullptr) {
      journal_->QuorumCommit(epoch, arrived_count, required);
    }
  }

  std::vector<const nn::Sequential*> models;
  std::vector<double> weights;
  std::vector<int> uploaders;
  models.reserve(active.size());
  for (int i : active) {
    if (!arrived[static_cast<size_t>(i)]) continue;
    const Client& client = MaterializedClient(i);
    models.push_back(&client.model());
    weights.push_back(static_cast<double>(client.num_samples()));
    uploaders.push_back(i);
  }
  // Ingest screening against the last aggregate: the non-finite gate always
  // runs (one NaN would brick the mean permanently); clipping and the
  // norm/cosine outlier tests follow config_.robust. Verdicts feed the
  // reputation machine; survivors are aggregated (through the installed
  // robust rule, if any). If every upload was lost or rejected this round,
  // the previous global model stands.
  if (!models.empty()) {
    std::vector<const nn::Sequential*> kept_models;
    std::vector<double> kept_weights;
    std::vector<std::unique_ptr<nn::Sequential>> clipped;
    const std::vector<ScreeningVerdict> verdicts = ScreenUpdates(
        config_.robust.screening, models, weights, server_->global_model(),
        &kept_models, &kept_weights, &clipped, &robust_counters_);
    for (size_t u = 0; u < uploaders.size(); ++u) {
      if (verdicts[u].flagged()) {
        reputation_.ReportFlagged(uploaders[u], &robust_counters_);
      } else {
        reputation_.ReportClean(uploaders[u]);
      }
      if (journal_ != nullptr) {
        journal_->ScreenVerdict(epoch, uploaders[u], verdicts[u].flagged());
      }
    }
    if (!kept_models.empty()) server_->Aggregate(kept_models, kept_weights);
  }
  reputation_.AdvanceRound(&robust_counters_);
  // Drain the reputation machine's transition log every round (not just
  // when journaling) so it never accumulates across rounds.
  for (const ReputationTracker::Transition& t :
       reputation_.DrainTransitions()) {
    if (journal_ != nullptr) {
      journal_->QuarantineTransition(epoch, t.client,
                                     static_cast<int>(t.from),
                                     static_cast<int>(t.to));
    }
  }
  Evaluation eval;
  if (evaluate) {
    FEDMIGR_TRACE_SCOPE("fl/evaluate");
    eval = server_->EvaluateGlobal(config_.batch_size * 2);
  }

  // Publish the (possibly refreshed) aggregate into the CoW store: one deep
  // copy + one flatten per aggregation, shared by every alias.
  store_.Publish(server_->global_model());
  if (journal_ != nullptr) {
    journal_->ModelPublished(epoch, store_.aggregate_lineage(),
                             store_.parent_lineage());
  }

  // Full participation distributes at commit, to every reachable client —
  // participants or not; a sampled cohort defers it to the next round's
  // BeginRound. The clock charges upload and download as one sum.
  double download_seconds = 0.0;
  if (!cohort_mode()) {
    std::vector<int> targets;
    targets.reserve(identity_.size());
    for (int i : identity_) {
      if (!(faulty && faults_.IsCrashed(i))) targets.push_back(i);
    }
    download_seconds = DistributeAggregate(epoch, targets);
  }
  budget_.ConsumeTime(upload_seconds + download_seconds);
  return eval;
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
    std::vector<double> dist;
    double samples = 0.0;
    int64_t lineage = 0;  // captured pre-move, like the payload itself
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
    move.dist = model_distributions_[static_cast<size_t>(src)];
    move.samples = model_samples_[static_cast<size_t>(src)];
    move.lineage = model_lineage_[static_cast<size_t>(src)];
    moves.push_back(std::move(move));
    CountMigrationPlanned(&chaos_counters_);
  }
  int installed = 0;
  for (Move& move : moves) {
    if (move.delivered) {
      MaterializedClient(move.dst).SetModel(std::move(move.model));
      model_distributions_[static_cast<size_t>(move.dst)] =
          std::move(move.dist);
      model_samples_[static_cast<size_t>(move.dst)] = move.samples;
      model_lineage_[static_cast<size_t>(move.dst)] = move.lineage;
      ++installed;
      if (move.fallback) {
        CountMigrationFallback(&chaos_counters_);
      } else {
        CountMigrationCompleted(&chaos_counters_);
      }
      if (journal_ != nullptr) {
        journal_->MigrationHop(epoch, move.src, move.dst,
                               move.fallback
                                   ? obs::MigrationRoute::kServerFallback
                                   : obs::MigrationRoute::kC2C,
                               move.lineage);
      }
    } else {
      // Roll back: drop the captured ref, then re-promote the source (a
      // no-op if its block is still aliased elsewhere — exactly the
      // pre-capture ownership state either way).
      move.model = nullptr;
      MaterializedClient(move.src).ReclaimModel();
      CountMigrationRolledBack(&chaos_counters_);
      if (journal_ != nullptr) {
        journal_->MigrationHop(epoch, move.src, move.dst,
                               obs::MigrationRoute::kRolledBack,
                               move.lineage);
      }
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
    model_dists.push_back(model_distributions_[static_cast<size_t>(i)]);
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
      if (src != static_cast<int>(j)) {
        ApplyDp(&MaterializedClient(ids[static_cast<size_t>(src)])
                     .mutable_model());
      }
    }
  }

  MigrationExecution exec = ExecuteWithFaults(
      plan, topology_, model_bytes_, &traffic_, &faults_, &ids);
  budget_.ConsumeBandwidth(static_cast<double>(exec.cost.bytes));
  budget_.ConsumeTime(exec.cost.seconds);

  // Corrupted deliveries hit the receiver's checksum: the payload is
  // rejected and the destination keeps the model it already has.
  for (size_t j = 0; j < exec.delivered.size(); ++j) {
    if (!exec.delivered[j] || !exec.corrupted[j]) continue;
    const int src = ids[static_cast<size_t>(plan.incoming[j])];
    if (CorruptedPayloadRejected(MaterializedClient(src).model())) {
      faults_.CountCorruptRejected();
      exec.delivered[j] = false;
    }
  }

  // Move the replicas (and their provenance) according to the plan; a
  // failed move degrades gracefully — the destination keeps its model.
  return ApplyMigrationMoves(epoch, plan, exec, ids);
}

Evaluation Trainer::VirtualEvaluation() {
  FEDMIGR_TRACE_SCOPE("fl/evaluate");
  std::vector<const nn::Sequential*> models;
  std::vector<double> weights;
  for (int i : active_clients()) {
    // Quarantined replicas and non-finite models are measurement poison:
    // one NaN coordinate would turn the whole virtual aggregate (and the
    // reported accuracy) into NaN. Both gates are no-ops on a clean run.
    if (!reputation_.Eligible(i)) continue;
    const Client& client = MaterializedClient(i);
    if (!client.has_model()) continue;
    if (!ParamsFinite(client.model())) continue;
    models.push_back(&client.model());
    weights.push_back(static_cast<double>(client.num_samples()));
  }
  if (models.empty()) return server_->EvaluateGlobal(config_.batch_size * 2);
  nn::Sequential aggregate = server_->global_model();
  Server::WeightedAverage(models, weights, &aggregate);
  return server_->Evaluate(aggregate, config_.batch_size * 2);
}

RunResult Trainer::Run() {
  result_.scheme = config_.scheme_name;
  result_.interrupted = false;

  // Checked live at each use below (not latched): the epoch hook may
  // install or detach the journal between epochs — the overhead harness in
  // bench_telemetry toggles it per epoch, exactly like obs::Telemetry.
  if (journal_ != nullptr) {
    FEDMIGR_CHECK(journal_->attached())
        << "journal must be Attach()ed before Run()";
    if (!journal_->header_written()) {
      obs::JournalHeader header;
      header.run_seed = config_.seed;
      header.num_clients = num_clients();
      header.cohort_size = config_.cohort_size;
      header.scheme = config_.scheme_name;
      journal_->BeginRun(header);
    }
  }

  for (int epoch = progress_.next_epoch;
       !progress_.done && epoch <= config_.max_epochs; ++epoch) {
    FEDMIGR_TRACE_SCOPE("fl/epoch");
    EpochRecord record;
    record.epoch = epoch;

    // Epoch tick for the injector: crash/straggler rolls happen on its own
    // RNG stream, and the chaos schedule (partition/outage windows) advances
    // here — before BeginRound, so a partition can refuse the round's
    // aggregate downloads.
    faults_.BeginEpoch(num_clients());

    // Chaos window edges: the injector's schedule is pure in the epoch, so
    // an edge is simply this epoch's sealed/down state differing from the
    // previous epoch's — the same comparison on a fresh and a resumed run.
    if (journal_ != nullptr && (config_.fault.chaos.has_partitions() ||
                                config_.fault.chaos.has_outages())) {
      for (int lan = 0; lan < topology_.num_lans(); ++lan) {
        const bool sealed = faults_.LanSealed(lan, epoch);
        const bool was_sealed = epoch > 1 && faults_.LanSealed(lan, epoch - 1);
        if (sealed && !was_sealed) journal_->ChaosLanSealed(epoch, lan);
        if (!sealed && was_sealed) journal_->ChaosLanOpened(epoch, lan);
      }
      const bool down = faults_.ServerDown(epoch);
      const bool was_down = epoch > 1 && faults_.ServerDown(epoch - 1);
      if (down && !was_down) journal_->ChaosServerDown(epoch);
      if (!down && was_down) journal_->ChaosServerUp(epoch);
    }

    // A new global iteration starts right after each aggregation.
    if ((epoch - 1) % config_.agg_period == 0) {
      BeginRound((epoch - 1) / config_.agg_period);
    }
    RollAvailability();

    if (journal_ != nullptr) {
      int available_count = 0;
      for (int i : active_clients()) {
        if (available_[static_cast<size_t>(i)]) ++available_count;
      }
      journal_->RoundBegin(epoch, static_cast<int>(active_clients().size()),
                           available_count, store_.aggregate_lineage());
    }
    // A publish this epoch moves the store's lineage head; comparing after
    // the phases tells the round-commit event whether one happened.
    const int64_t lineage_before = store_.aggregate_lineage();

    double compute_before = budget_.compute_used();
    double bandwidth_before = budget_.bandwidth_used();
    const double sim_epoch_start = budget_.time_used();

    double phase_seconds = 0.0;
    record.train_loss = LocalUpdatePhase(epoch, &phase_seconds);
    const double sim_after_update = budget_.time_used();

    const bool aggregate_now = (epoch % config_.agg_period == 0) ||
                               (epoch == config_.max_epochs);
    const bool evaluate_now =
        config_.eval_every > 0 && (epoch % config_.eval_every == 0 ||
                                   epoch == config_.max_epochs);
    if (aggregate_now) {
      const Evaluation eval = AggregationPhase(epoch, evaluate_now);
      if (evaluate_now) {
        progress_.last_accuracy = eval.accuracy;
        progress_.last_test_loss = eval.loss;
      }
      record.aggregated = true;
    } else {
      record.migrations = MigrationPhase(epoch, record.train_loss);
      if (evaluate_now) {
        const Evaluation eval = VirtualEvaluation();
        progress_.last_accuracy = eval.accuracy;
        progress_.last_test_loss = eval.loss;
      }
    }

    record.test_accuracy = progress_.last_accuracy;
    record.test_loss = progress_.last_test_loss;
    record.cumulative_time_s = budget_.time_used();
    record.cumulative_traffic_gb =
        static_cast<double>(traffic_.total_bytes()) / 1e9;
    result_.history.push_back(record);

    if (obs::Telemetry::enabled()) {
      // Simulated-time spans go on the pid-2 tracks so a trace shows what
      // the simulation modelled next to what the host actually spent.
      obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
      if (recorder.recording()) {
        const double sim_epoch_end = budget_.time_used();
        recorder.RecordSimSpan("epoch " + std::to_string(epoch), "fl/epoch",
                               sim_epoch_start, sim_epoch_end);
        recorder.RecordSimSpan("local_update", "fl/phase", sim_epoch_start,
                               sim_after_update);
        recorder.RecordSimSpan(record.aggregated ? "aggregate" : "migrate",
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
      if (record.aggregated) aggregations->Increment();
      migrations_applied->Add(record.migrations);
      train_loss->Set(record.train_loss);
      test_accuracy->Set(record.test_accuracy);
      obs::UpdateResourceGauges();
    }

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
        std::isinf(cb) ? 0.0 : (budget_.compute_used() - compute_before) / cb;
    feedback.bandwidth_cost_fraction =
        std::isinf(bb) ? 0.0
                       : (budget_.bandwidth_used() - bandwidth_before) / bb;
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
    const bool done =
        target_hit || exhausted || epoch == config_.max_epochs;
    feedback.done = done;
    feedback.success = done && !exhausted;
    policy_->Feedback(feedback);

    // The epoch is now fully accounted for; a snapshot taken here (by the
    // hook) resumes at next_epoch.
    progress_.next_epoch = epoch + 1;
    if (target_hit || exhausted) {
      result_.budget_exhausted = exhausted;
      progress_.done = true;
    } else if (epoch == config_.max_epochs) {
      progress_.done = true;
    }

    // Flush the epoch's events as one frame BEFORE the hook: a snapshot
    // taken there resumes at epoch + 1, and Attach(epoch) keeps exactly the
    // chunks committed so far — kill-anywhere resume replays to a
    // byte-equal journal.
    if (journal_ != nullptr) {
      int participated = 0;
      for (int i : active_clients()) {
        if (participating_[static_cast<size_t>(i)]) ++participated;
      }
      journal_->RoundCommitted(epoch, participated,
                               store_.aggregate_lineage() != lineage_before,
                               store_.aggregate_lineage(), record.train_loss);
      const util::Status committed = journal_->CommitEpoch(epoch);
      FEDMIGR_CHECK(committed.ok())
          << "journal commit failed: " << committed.message();
    }

    if (epoch_hook_ && !epoch_hook_(*this, epoch) && !progress_.done) {
      result_.interrupted = true;
      break;
    }
  }

  if (journal_ != nullptr) {
    // Clean completion seals the journal with the summary chunk; an
    // interrupted run only syncs — the resumed run appends the rest.
    const util::Status sealed =
        progress_.done && !result_.interrupted ? journal_->EndRun()
                                               : journal_->Finish();
    FEDMIGR_CHECK(sealed.ok())
        << "journal finalize failed: " << sealed.message();
  }

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
  result_.robust = robust_counters_;
  result_.chaos = chaos_counters_;
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

// Bumped whenever the trainer state layout changes.
// v2: robustness counters + reputation state appended after the policy blob.
// v3: cohort_size joins the fingerprint; per-client records gain a kind
//     byte (0 = lazy, never materialized; 1 = materialized) and a flag byte
//     that elides the parameter payload when the replica aliases the
//     current aggregate block (see Client::SaveState).
// v4: chaos layer — quorum_fraction and a hash of the chaos schedule join
//     the fingerprint; the injector stream gains the epoch counter and the
//     partition/outage counters; chaos counters, the effective cohort (no
//     longer pure in (seed, round) once churn and carryover apply) and the
//     quorum carryover list are appended after the reputation state.
// v5: flight-recorder lineage — the per-slot lineage ids and the model
//     store's mint state (next id, aggregate, parent) are appended after
//     the chaos block, so a resumed run keeps emitting the same causal
//     edges the uninterrupted run would have.
constexpr uint32_t kTrainerStateVersion = 5;

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

void WriteEpochRecord(util::ByteWriter* writer, const EpochRecord& record) {
  writer->WriteI32(record.epoch);
  writer->WriteF64(record.train_loss);
  writer->WriteF64(record.test_accuracy);
  writer->WriteF64(record.test_loss);
  writer->WriteF64(record.cumulative_time_s);
  writer->WriteF64(record.cumulative_traffic_gb);
  writer->WriteBool(record.aggregated);
  writer->WriteI32(record.migrations);
}

util::Status ReadEpochRecord(util::ByteReader* reader, EpochRecord* record) {
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32(&record->epoch));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&record->train_loss));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&record->test_accuracy));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&record->test_loss));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&record->cumulative_time_s));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&record->cumulative_traffic_gb));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadBool(&record->aggregated));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32(&record->migrations));
  return util::Status::Ok();
}

}  // namespace

void Trainer::SaveState(util::ByteWriter* writer) const {
  // Fingerprint: a snapshot may only be restored into a trainer built from
  // the same workload and schedule.
  writer->WriteU32(kTrainerStateVersion);
  writer->WriteString(config_.scheme_name);
  writer->WriteU32(static_cast<uint32_t>(num_clients()));
  writer->WriteI64(model_params_);
  writer->WriteU64(config_.seed);
  writer->WriteI32(config_.agg_period);
  writer->WriteI32(config_.max_epochs);
  writer->WriteI32(config_.cohort_size);
  writer->WriteF64(config_.quorum_fraction);
  writer->WriteU64(ChaosScheduleFingerprint(config_.fault.chaos));

  // Run progress and accumulated result.
  writer->WriteI32(progress_.next_epoch);
  writer->WriteF64(progress_.last_accuracy);
  writer->WriteF64(progress_.last_test_loss);
  writer->WriteF64(progress_.previous_loss);
  writer->WriteBool(progress_.done);
  writer->WriteF64(result_.best_accuracy);
  writer->WriteI32(result_.epochs_run);
  writer->WriteBool(result_.reached_target);
  writer->WriteI32(result_.epochs_to_target);
  writer->WriteF64(result_.time_to_target_s);
  writer->WriteF64(result_.traffic_to_target_gb);
  writer->WriteBool(result_.budget_exhausted);
  writer->WriteU64(result_.history.size());
  for (const EpochRecord& record : result_.history) {
    WriteEpochRecord(writer, record);
  }

  // Simulation state.
  util::SaveRngState(rng_, writer);
  budget_.SaveState(writer);
  traffic_.SaveState(writer);
  faults_.SaveState(writer);
  writer->WriteBoolVector(participating_);
  writer->WriteBoolVector(available_);
  writer->WriteU64(model_distributions_.size());
  for (const auto& dist : model_distributions_) {
    writer->WriteF64Vector(dist);
  }
  writer->WriteF64Vector(model_samples_);

  // Models: server, then every client slot. Lazy clients write one byte;
  // materialized clients whose replica still aliases the current aggregate
  // block skip the parameter payload (the block is rebuilt from the server
  // model on load). The effective cohort is stored with the chaos layer
  // below.
  nn::WriteParams(writer, server_->global_model());
  const ModelRef& aggregate = store_.aggregate();
  const FlatRef& aggregate_flat = store_.aggregate_flat();
  for (int i = 0; i < num_clients(); ++i) {
    const Client* client = clients_.Get(i);
    if (client == nullptr) {
      writer->WriteU8(0);
      continue;
    }
    writer->WriteU8(1);
    client->SaveState(writer, aggregate, aggregate_flat);
  }

  // Policy state rides as a length-prefixed blob so the container framing
  // survives even if a policy's stream is malformed.
  util::ByteWriter policy_writer;
  policy_->SaveState(&policy_writer);
  writer->WriteBytes(policy_writer.bytes());

  // v2: robustness layer (counters + reputation). `eligible_` is derived
  // state, recomputed from availability and reputation on load.
  SaveRobustCounters(robust_counters_, writer);
  reputation_.SaveState(writer);

  // v4: chaos layer. The effective cohort must be stored (not recomputed):
  // under churn and quorum carryover it is no longer a pure function of
  // (seed, round), and a kill inside a round must resume with exactly the
  // members that were active when the round began.
  SaveChaosCounters(chaos_counters_, writer);
  writer->WriteI32Vector(cohort_);
  writer->WriteI64(cohort_round_);
  writer->WriteI32Vector(carryover_);

  // v5: lineage state for the flight recorder.
  writer->WriteU64(model_lineage_.size());
  for (int64_t lineage : model_lineage_) {
    writer->WriteI64(lineage);
  }
  writer->WriteI64(store_.next_lineage_id());
  writer->WriteI64(store_.aggregate_lineage());
  writer->WriteI64(store_.parent_lineage());
}

util::Status Trainer::LoadState(util::ByteReader* reader) {
  uint32_t version = 0;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kTrainerStateVersion) {
    return util::Status::InvalidArgument("unsupported trainer state version");
  }
  std::string scheme;
  uint32_t clients = 0;
  int64_t params = 0;
  uint64_t seed = 0;
  int32_t agg_period = 0;
  int32_t max_epochs = 0;
  int32_t cohort_size = 0;
  double quorum_fraction = 0.0;
  uint64_t chaos_fingerprint = 0;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadString(&scheme));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadU32(&clients));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI64(&params));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadU64(&seed));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32(&agg_period));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32(&max_epochs));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32(&cohort_size));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&quorum_fraction));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadU64(&chaos_fingerprint));
  if (scheme != config_.scheme_name ||
      clients != static_cast<uint32_t>(num_clients()) ||
      params != model_params_ || seed != config_.seed ||
      agg_period != config_.agg_period || max_epochs != config_.max_epochs ||
      cohort_size != config_.cohort_size ||
      quorum_fraction != config_.quorum_fraction ||
      chaos_fingerprint != ChaosScheduleFingerprint(config_.fault.chaos)) {
    return util::Status::InvalidArgument(
        "snapshot fingerprint does not match this trainer");
  }

  RunProgress progress;
  RunResult result;
  result.scheme = config_.scheme_name;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32(&progress.next_epoch));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&progress.last_accuracy));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&progress.last_test_loss));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&progress.previous_loss));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadBool(&progress.done));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&result.best_accuracy));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32(&result.epochs_run));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadBool(&result.reached_target));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32(&result.epochs_to_target));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&result.time_to_target_s));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64(&result.traffic_to_target_gb));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadBool(&result.budget_exhausted));
  if (progress.next_epoch < 1 || progress.next_epoch > config_.max_epochs + 1) {
    return util::Status::InvalidArgument("snapshot epoch out of range");
  }
  uint64_t history_size = 0;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadU64(&history_size));
  if (history_size > static_cast<uint64_t>(config_.max_epochs)) {
    return util::Status::InvalidArgument("snapshot history too long");
  }
  result.history.resize(static_cast<size_t>(history_size));
  for (EpochRecord& record : result.history) {
    FEDMIGR_RETURN_IF_ERROR(ReadEpochRecord(reader, &record));
  }

  // Parse the simulation state into stand-ins first; the trainer is only
  // mutated once the whole stream (including every client and the policy)
  // has validated, so a corrupt snapshot leaves it untouched.
  util::Rng rng(0);
  FEDMIGR_RETURN_IF_ERROR(util::LoadRngState(reader, &rng));
  net::Budget budget = config_.budget;
  FEDMIGR_RETURN_IF_ERROR(budget.LoadState(reader));
  net::TrafficAccountant traffic;
  FEDMIGR_RETURN_IF_ERROR(traffic.LoadState(reader));
  net::FaultInjector faults(config_.fault);
  FEDMIGR_RETURN_IF_ERROR(faults.LoadState(reader));
  std::vector<bool> participating;
  std::vector<bool> available;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadBoolVector(&participating));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadBoolVector(&available));
  if (participating.size() != static_cast<size_t>(num_clients()) ||
      available.size() != static_cast<size_t>(num_clients())) {
    return util::Status::InvalidArgument(
        "snapshot participation vectors sized wrong");
  }
  uint64_t dist_count = 0;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadU64(&dist_count));
  if (dist_count != static_cast<uint64_t>(num_clients())) {
    return util::Status::InvalidArgument(
        "snapshot distribution count mismatch");
  }
  std::vector<std::vector<double>> distributions(
      static_cast<size_t>(dist_count));
  for (auto& dist : distributions) {
    FEDMIGR_RETURN_IF_ERROR(reader->ReadF64Vector(&dist));
  }
  std::vector<double> samples;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadF64Vector(&samples));
  if (samples.size() != static_cast<size_t>(num_clients())) {
    return util::Status::InvalidArgument("snapshot sample count mismatch");
  }

  nn::Sequential global = server_->global_model();
  FEDMIGR_RETURN_IF_ERROR(nn::ReadParams(reader, &global));
  // Re-publish before the client records: aliased replicas re-attach to
  // this block (same caveat as the in-place client loads below — the store
  // is already mutated if a later record turns out corrupt; the snapshot
  // layer's CRC gate runs before any of this).
  store_.Publish(global);

  // Client and policy state cannot be staged without copying whole models,
  // so they are validated structurally while loading; the guarantee that
  // holds for the full trainer is therefore "no partial load on corrupt
  // container" at the snapshot layer, where a CRC gate runs first.
  for (int i = 0; i < num_clients(); ++i) {
    uint8_t kind = 0;
    FEDMIGR_RETURN_IF_ERROR(reader->ReadU8(&kind));
    if (kind == 0) {
      Client* materialized = clients_.Get(i);
      if (materialized != nullptr) {
        // The snapshot predates this client's first cohort: reclaim the
        // data slice and return the slot to the lazy state.
        partition_[static_cast<size_t>(i)] = materialized->indices();
        clients_.Evict(i);
      }
      continue;
    }
    if (kind != 1) {
      return util::Status::InvalidArgument("unknown client record kind");
    }
    FEDMIGR_RETURN_IF_ERROR(ClientAt(i).LoadState(reader, store_.aggregate(),
                                                  store_.aggregate_flat()));
  }
  std::vector<uint8_t> policy_bytes;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadBytes(&policy_bytes));
  util::ByteReader policy_reader(policy_bytes);
  FEDMIGR_RETURN_IF_ERROR(policy_->LoadState(&policy_reader));

  RobustCounters robust_counters;
  FEDMIGR_RETURN_IF_ERROR(LoadRobustCounters(reader, &robust_counters));
  ReputationTracker reputation(config_.robust.reputation, num_clients());
  FEDMIGR_RETURN_IF_ERROR(reputation.LoadState(reader));

  // v4: chaos layer.
  ChaosCounters chaos_counters;
  FEDMIGR_RETURN_IF_ERROR(LoadChaosCounters(reader, &chaos_counters));
  std::vector<int> cohort;
  int64_t cohort_round = -1;
  std::vector<int> carryover;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32Vector(&cohort));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI64(&cohort_round));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI32Vector(&carryover));
  for (int i : cohort) {
    if (i < 0 || i >= num_clients()) {
      return util::Status::InvalidArgument("snapshot cohort id out of range");
    }
  }
  for (int i : carryover) {
    if (i < 0 || i >= num_clients()) {
      return util::Status::InvalidArgument(
          "snapshot carryover id out of range");
    }
  }
  if (!cohort_mode() && (!cohort.empty() || !carryover.empty())) {
    return util::Status::InvalidArgument(
        "snapshot carries a cohort but this trainer runs full participation");
  }

  // v5: lineage state.
  uint64_t lineage_count = 0;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadU64(&lineage_count));
  if (lineage_count != static_cast<uint64_t>(num_clients())) {
    return util::Status::InvalidArgument("snapshot lineage count mismatch");
  }
  std::vector<int64_t> lineage(static_cast<size_t>(lineage_count));
  for (int64_t& id : lineage) {
    FEDMIGR_RETURN_IF_ERROR(reader->ReadI64(&id));
  }
  int64_t next_lineage_id = 0;
  int64_t aggregate_lineage = 0;
  int64_t parent_lineage = 0;
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI64(&next_lineage_id));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI64(&aggregate_lineage));
  FEDMIGR_RETURN_IF_ERROR(reader->ReadI64(&parent_lineage));
  if (next_lineage_id < 1 || aggregate_lineage >= next_lineage_id ||
      parent_lineage >= next_lineage_id) {
    return util::Status::InvalidArgument("snapshot lineage ids inconsistent");
  }

  progress_ = progress;
  result_ = std::move(result);
  rng_ = rng;
  budget_ = budget;
  traffic_ = std::move(traffic);
  faults_ = std::move(faults);
  participating_ = std::move(participating);
  available_ = std::move(available);
  model_distributions_ = std::move(distributions);
  model_samples_ = std::move(samples);
  server_->global_model() = std::move(global);
  robust_counters_ = robust_counters;
  reputation_ = std::move(reputation);
  for (size_t i = 0; i < eligible_.size(); ++i) {
    eligible_[i] =
        available_[i] && reputation_.Eligible(static_cast<int>(i));
  }
  // The effective cohort is restored, not recomputed: under churn and
  // quorum carryover only the snapshot knows who was active mid-round.
  chaos_counters_ = chaos_counters;
  cohort_ = std::move(cohort);
  cohort_round_ = cohort_round;
  carryover_ = std::move(carryover);
  // The re-publish above minted a throwaway id; restore the mint counter
  // and the aggregate/parent heads the snapshot recorded so the next
  // publish continues the same id sequence.
  model_lineage_ = std::move(lineage);
  store_.RestoreLineage(next_lineage_id, aggregate_lineage, parent_lineage);
  return util::Status::Ok();
}

}  // namespace fedmigr::fl
