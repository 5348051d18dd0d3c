// Byzantine-robust aggregation, update screening and quarantine: aggregator
// rules, the ingest screen, the reputation state machine, snapshot
// round-trips, and the end-to-end attack-vs-defense matrix on a tiny
// workload.

#include "fl/robust.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/schemes.h"
#include "fl/server.h"
#include "fl/trainer.h"
#include "net/sim_topologies.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "nn/zoo.h"
#include "obs/events.h"
#include "util/rng.h"

namespace fedmigr::fl {
namespace {

nn::Sequential ConstantModel(float value) {
  util::Rng rng(1);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Dense>(3, 2, &rng));
  for (nn::Tensor* p : model.Params()) p->Fill(value);
  return model;
}

nn::Sequential NoisyModel(float center, float spread, uint64_t seed) {
  nn::Sequential model = ConstantModel(center);
  util::Rng rng(seed);
  for (nn::Tensor* p : model.Params()) {
    float* data = p->data();
    for (int64_t i = 0; i < p->size(); ++i) {
      data[i] = center + spread * static_cast<float>(rng.Normal());
    }
  }
  return model;
}

double MeanParam(const nn::Sequential& model) {
  double sum = 0.0;
  int64_t count = 0;
  for (const nn::Tensor* p : model.Params()) {
    const float* data = p->data();
    for (int64_t i = 0; i < p->size(); ++i) sum += data[i];
    count += p->size();
  }
  return sum / static_cast<double>(count);
}

// ---------------------------------------------------------------------------
// Aggregators
// ---------------------------------------------------------------------------

// The Mean rule and the WeightedMean kernel the trainer's virtual
// evaluation calls are one implementation.
TEST(RobustAggregatorTest, MeanIsBitIdenticalToLegacyWeightedAverage) {
  const nn::Sequential a = NoisyModel(0.5f, 0.3f, 11);
  const nn::Sequential b = NoisyModel(-0.2f, 0.5f, 12);
  const nn::Sequential c = NoisyModel(1.0f, 0.1f, 13);
  const std::vector<const nn::Sequential*> models = {&a, &b, &c};
  const std::vector<double> weights = {3.0, 1.0, 2.5};

  nn::Sequential legacy = ConstantModel(0.0f);
  WeightedMean(models, weights, &legacy);
  nn::Sequential robust = ConstantModel(0.0f);
  MakeAggregator(AggregatorKind::kMean)->Aggregate(models, weights, &robust);

  const std::vector<float> lhs = nn::FlattenParams(legacy);
  const std::vector<float> rhs = nn::FlattenParams(robust);
  ASSERT_EQ(lhs.size(), rhs.size());
  EXPECT_EQ(0, std::memcmp(lhs.data(), rhs.data(),
                           lhs.size() * sizeof(float)));
}

TEST(RobustAggregatorTest, TrimmedMeanDropsCoordinateExtremes) {
  // Four models at 1.0, one at 1000: trim_fraction 0.2 removes one value
  // from each end per coordinate, so the outlier never enters the mean.
  const nn::Sequential honest = ConstantModel(1.0f);
  const nn::Sequential outlier = ConstantModel(1000.0f);
  const std::vector<const nn::Sequential*> models = {&honest, &honest,
                                                     &honest, &honest,
                                                     &outlier};
  nn::Sequential out = ConstantModel(0.0f);
  MakeAggregator(AggregatorKind::kTrimmedMean)
      ->Aggregate(models, std::vector<double>(5, 1.0), &out);
  EXPECT_NEAR(MeanParam(out), 1.0, 1e-6);
}

TEST(RobustAggregatorTest, CoordinateMedianResistsMinorityOutliers) {
  const nn::Sequential low = ConstantModel(-50.0f);
  const nn::Sequential mid = ConstantModel(2.0f);
  const nn::Sequential high = ConstantModel(90.0f);
  const std::vector<const nn::Sequential*> models = {&low, &mid, &high};
  nn::Sequential out = ConstantModel(0.0f);
  MakeAggregator(AggregatorKind::kCoordinateMedian)
      ->Aggregate(models, std::vector<double>(3, 1.0), &out);
  EXPECT_NEAR(MeanParam(out), 2.0, 1e-6);
}

TEST(RobustAggregatorTest, KrumSelectsFromTheHonestCluster) {
  // Seven honest models clustered at 1.0, two attackers at -8: Krum's
  // score (sum of closest n-f-2 distances) puts every attacker far from
  // the cluster, so the selection lands inside it.
  std::vector<nn::Sequential> owned;
  for (int i = 0; i < 7; ++i) owned.push_back(NoisyModel(1.0f, 0.05f, 20 + i));
  owned.push_back(ConstantModel(-8.0f));
  owned.push_back(ConstantModel(-8.5f));
  std::vector<const nn::Sequential*> models;
  for (const auto& m : owned) models.push_back(&m);

  nn::Sequential out = ConstantModel(0.0f);
  MakeAggregator(AggregatorKind::kKrum)
      ->Aggregate(models, std::vector<double>(models.size(), 1.0), &out);
  EXPECT_NEAR(MeanParam(out), 1.0, 0.2);

  nn::Sequential multi = ConstantModel(0.0f);
  MakeAggregator(AggregatorKind::kMultiKrum)
      ->Aggregate(models, std::vector<double>(models.size(), 1.0), &multi);
  EXPECT_NEAR(MeanParam(multi), 1.0, 0.2);
}

TEST(RobustAggregatorTest, MatrixMeanFailsWhereRobustRulesHold) {
  // The acceptance matrix: n = 10 uploads, f = 2 sign-flipped attackers
  // (f < n/2 - 1). The weighted mean is dragged far off the honest
  // center; trimmed-mean, median and Krum all stay within a tight ball.
  std::vector<nn::Sequential> owned;
  for (int i = 0; i < 8; ++i) owned.push_back(NoisyModel(1.0f, 0.05f, 40 + i));
  owned.push_back(ConstantModel(-8.0f));  // sign-flip style poison
  owned.push_back(ConstantModel(-8.0f));
  std::vector<const nn::Sequential*> models;
  for (const auto& m : owned) models.push_back(&m);
  const std::vector<double> weights(models.size(), 1.0);

  const AggregatorKind robust_kinds[] = {AggregatorKind::kTrimmedMean,
                                         AggregatorKind::kCoordinateMedian,
                                         AggregatorKind::kKrum,
                                         AggregatorKind::kMultiKrum};
  for (AggregatorKind kind : robust_kinds) {
    nn::Sequential out = ConstantModel(0.0f);
    MakeAggregator(kind)->Aggregate(models, weights, &out);
    EXPECT_NEAR(MeanParam(out), 1.0, 0.2)
        << "rule " << AggregatorKindName(kind);
  }
  nn::Sequential mean = ConstantModel(0.0f);
  MakeAggregator(AggregatorKind::kMean)->Aggregate(models, weights, &mean);
  EXPECT_LT(MeanParam(mean), 0.0);  // two -8 uploads drag 8x(+1) below zero
}

TEST(RobustAggregatorTest, ParseRoundTrips) {
  const AggregatorKind kinds[] = {
      AggregatorKind::kMean, AggregatorKind::kTrimmedMean,
      AggregatorKind::kCoordinateMedian, AggregatorKind::kKrum,
      AggregatorKind::kMultiKrum};
  for (AggregatorKind kind : kinds) {
    AggregatorKind parsed;
    ASSERT_TRUE(ParseAggregatorKind(AggregatorKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_EQ(MakeAggregator(kind)->name(), AggregatorKindName(kind));
  }
  AggregatorKind unused;
  EXPECT_FALSE(ParseAggregatorKind("bogus", &unused));

  net::AttackMode mode;
  ASSERT_TRUE(net::ParseAttackMode("sign-flip", &mode));
  EXPECT_EQ(mode, net::AttackMode::kSignFlip);
  EXPECT_FALSE(net::ParseAttackMode("bogus", &mode));

  // A profile sets screening and reputation only: the aggregator and its
  // options chosen before it survive every profile.
  const auto krum_config = [] {
    RobustConfig config;
    config.aggregator = AggregatorKind::kKrum;
    config.aggregator_options.trim_fraction = 0.3;
    config.aggregator_options.assumed_attackers = 2;
    config.aggregator_options.multi_krum_m = 5;
    return config;
  };
  const auto expect_krum_kept = [](const RobustConfig& config) {
    EXPECT_EQ(config.aggregator, AggregatorKind::kKrum);
    EXPECT_EQ(config.aggregator_options.trim_fraction, 0.3);
    EXPECT_EQ(config.aggregator_options.assumed_attackers, 2);
    EXPECT_EQ(config.aggregator_options.multi_krum_m, 5);
  };
  RobustConfig config = krum_config();
  config.screening.norm_reject_factor = 4.0;
  config.reputation.enabled = true;
  EXPECT_TRUE(ParseRobustProfile("off", &config));
  expect_krum_kept(config);
  EXPECT_FALSE(config.screening.active());
  EXPECT_FALSE(config.reputation.enabled);
  config = krum_config();
  EXPECT_TRUE(ParseRobustProfile("screen", &config));
  expect_krum_kept(config);
  EXPECT_TRUE(config.screening.active());
  EXPECT_FALSE(config.reputation.enabled);
  config = krum_config();
  EXPECT_TRUE(ParseRobustProfile("defense", &config));
  expect_krum_kept(config);
  EXPECT_TRUE(config.screening.active());
  EXPECT_TRUE(config.reputation.enabled);
  EXPECT_FALSE(ParseRobustProfile("bogus", &config));
}

// ---------------------------------------------------------------------------
// Screening
// ---------------------------------------------------------------------------

TEST(ScreeningTest, NonFiniteUpdatesAlwaysRejected) {
  const nn::Sequential reference = ConstantModel(1.0f);
  const nn::Sequential honest = ConstantModel(1.1f);
  nn::Sequential poisoned = ConstantModel(1.0f);
  poisoned.Params()[0]->data()[0] = std::numeric_limits<float>::quiet_NaN();

  std::vector<const nn::Sequential*> kept;
  std::vector<double> kept_weights;
  std::vector<std::unique_ptr<nn::Sequential>> storage;
  RobustCounters counters;
  const auto verdicts = ScreenUpdates(
      ScreeningConfig{}, {&honest, &poisoned}, {1.0, 1.0}, reference, &kept,
      &kept_weights, &storage, &counters);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].accepted());
  EXPECT_EQ(verdicts[1].outcome, ScreeningOutcome::kNonFinite);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], &honest);
  EXPECT_EQ(counters.screened_updates, 2);
  EXPECT_EQ(counters.nonfinite_rejected, 1);
}

TEST(ScreeningTest, CosineGateCatchesSignFlip) {
  const nn::Sequential reference = NoisyModel(1.0f, 0.2f, 7);
  nn::Sequential flipped = reference;
  for (nn::Tensor* p : flipped.Params()) p->Scale(-1.0f);
  const nn::Sequential honest = NoisyModel(1.0f, 0.25f, 8);

  ScreeningConfig config;
  config.cosine_reject_below = -0.2;
  std::vector<const nn::Sequential*> kept;
  std::vector<double> kept_weights;
  std::vector<std::unique_ptr<nn::Sequential>> storage;
  RobustCounters counters;
  const auto verdicts =
      ScreenUpdates(config, {&honest, &flipped}, {1.0, 1.0}, reference, &kept,
                    &kept_weights, &storage, &counters);
  EXPECT_TRUE(verdicts[0].accepted());
  EXPECT_EQ(verdicts[1].outcome, ScreeningOutcome::kCosineOutlier);
  EXPECT_NEAR(verdicts[1].cosine, -1.0, 1e-3);
  EXPECT_EQ(counters.cosine_rejected, 1);
}

TEST(ScreeningTest, NormOutlierRejectedAndClipApplied) {
  const nn::Sequential reference = ConstantModel(0.0f);
  const nn::Sequential small_a = ConstantModel(0.1f);
  const nn::Sequential small_b = ConstantModel(-0.1f);
  const nn::Sequential small_c = ConstantModel(0.12f);
  const nn::Sequential huge = ConstantModel(50.0f);

  ScreeningConfig config;
  config.norm_reject_factor = 4.0;
  std::vector<const nn::Sequential*> kept;
  std::vector<double> kept_weights;
  std::vector<std::unique_ptr<nn::Sequential>> storage;
  RobustCounters counters;
  auto verdicts = ScreenUpdates(config, {&small_a, &small_b, &small_c, &huge},
                                {1.0, 1.0, 1.0, 1.0}, reference, &kept,
                                &kept_weights, &storage, &counters);
  EXPECT_EQ(verdicts[3].outcome, ScreeningOutcome::kNormOutlier);
  EXPECT_EQ(counters.norm_rejected, 1);
  EXPECT_EQ(kept.size(), 3u);

  // Clipping: same outlier, but with a clip ball instead of rejection —
  // the update is kept, scaled back onto the ball.
  ScreeningConfig clip_config;
  clip_config.clip_norm = 1.0;
  kept.clear();
  kept_weights.clear();
  storage.clear();
  RobustCounters clip_counters;
  verdicts = ScreenUpdates(clip_config, {&small_a, &huge}, {1.0, 1.0},
                           reference, &kept, &kept_weights, &storage,
                           &clip_counters);
  EXPECT_EQ(verdicts[1].outcome, ScreeningOutcome::kClipped);
  EXPECT_TRUE(verdicts[1].accepted());
  EXPECT_EQ(clip_counters.norm_clipped, 1);
  ASSERT_EQ(kept.size(), 2u);
  // The clipped survivor's delta norm sits on the ball.
  double delta2 = 0.0;
  const std::vector<float> clipped = nn::FlattenParams(*kept[1]);
  for (float v : clipped) delta2 += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(delta2), 1.0, 1e-4);
}

// ---------------------------------------------------------------------------
// Reputation state machine
// ---------------------------------------------------------------------------

// Drains the tracker's transition log into events and folds them into
// `counters`, as the trainer does every aggregation round.
void FoldTransitions(ReputationTracker* tracker, RobustCounters* counters) {
  obs::EventBuffer events;
  for (const ReputationTracker::Transition& t : tracker->DrainTransitions()) {
    events.QuarantineTransition(/*epoch=*/0, t.client,
                                static_cast<int>(t.from),
                                static_cast<int>(t.to));
  }
  obs::EventCounts counts;
  counts.robust = *counters;
  for (const obs::JournalEvent& event : events.events()) {
    obs::FoldEvent(event, &counts);
  }
  *counters = counts.robust;
}

// The tracker as it was before its records went sparse: one record per
// client, and a round tick that walks all of them. A frozen reference for
// the sparse tracker's transitions and bytes.
class DenseReputation {
 public:
  DenseReputation(const ReputationConfig& config, int num_clients)
      : config_(config),
        records_(static_cast<size_t>(num_clients)),
        flagged_(static_cast<size_t>(num_clients), false) {}

  ReputationState state(int client) const {
    return records_[static_cast<size_t>(client)].state;
  }
  int first_quarantine_round(int client) const {
    return records_[static_cast<size_t>(client)].first_quarantine_round;
  }

  void ReportFlagged(int client) {
    flagged_[static_cast<size_t>(client)] = true;
    Record& record = records_[static_cast<size_t>(client)];
    switch (record.state) {
      case ReputationState::kHealthy:
        Transition(client, ReputationState::kSuspect);
        record.state = ReputationState::kSuspect;
        record.strikes = 1;
        record.clean_streak = 0;
        if (record.strikes >= config_.patience) Quarantine(client);
        break;
      case ReputationState::kSuspect:
        ++record.strikes;
        record.clean_streak = 0;
        if (record.strikes >= config_.patience) Quarantine(client);
        break;
      case ReputationState::kRehabilitating:
        Quarantine(client);
        break;
      case ReputationState::kQuarantined:
        break;
    }
  }

  void ReportClean(int client) {
    Record& record = records_[static_cast<size_t>(client)];
    if (record.state == ReputationState::kSuspect) {
      if (++record.clean_streak >= config_.patience) {
        Transition(client, ReputationState::kHealthy);
        record.state = ReputationState::kHealthy;
        record.strikes = 0;
        record.clean_streak = 0;
      }
    } else if (record.state == ReputationState::kRehabilitating) {
      ++record.clean_streak;
    }
  }

  void AdvanceRound() {
    ++round_;
    for (size_t i = 0; i < records_.size(); ++i) {
      Record& record = records_[i];
      const int client = static_cast<int>(i);
      if (record.state == ReputationState::kQuarantined) {
        if (--record.quarantine_left <= 0) {
          Transition(client, ReputationState::kRehabilitating);
          record.state = ReputationState::kRehabilitating;
          record.strikes = 0;
          record.clean_streak = 0;
        }
      } else if (record.state == ReputationState::kRehabilitating &&
                 record.clean_streak >= config_.patience) {
        Transition(client, ReputationState::kHealthy);
        record.state = ReputationState::kHealthy;
        record.strikes = 0;
        record.clean_streak = 0;
      }
    }
  }

  // The sparse tracker's stream: the round, then by id the record of every
  // client ever flagged, the clients it holds a record for.
  std::vector<uint8_t> Bytes() {
    std::map<int, Record> held;
    for (size_t i = 0; i < records_.size(); ++i) {
      if (flagged_[i]) held.emplace(static_cast<int>(i), records_[i]);
    }
    util::ByteWriter writer;
    writer.Io(round_);
    writer.Io(held);
    return writer.TakeBytes();
  }

  std::vector<ReputationTracker::Transition> transitions;

 private:
  struct Record {
    ReputationState state = ReputationState::kHealthy;
    int strikes = 0;
    int clean_streak = 0;
    int quarantine_left = 0;
    int first_quarantine_round = -1;

    template <class Ar>
    util::Status Visit(Ar& ar) {
      ar.Io(state);
      ar.Io(strikes);
      ar.Io(clean_streak);
      ar.Io(quarantine_left);
      ar.Io(first_quarantine_round);
      return ar.status();
    }
  };

  void Transition(int client, ReputationState to) {
    transitions.push_back(
        {client, records_[static_cast<size_t>(client)].state, to});
  }
  void Quarantine(int client) {
    Record& record = records_[static_cast<size_t>(client)];
    Transition(client, ReputationState::kQuarantined);
    record.state = ReputationState::kQuarantined;
    record.quarantine_left = config_.quarantine_rounds + 1;
    record.strikes = 0;
    record.clean_streak = 0;
    if (record.first_quarantine_round < 0) {
      record.first_quarantine_round = round_ + 1;
    }
  }

  ReputationConfig config_;
  std::vector<Record> records_;
  std::vector<bool> flagged_;
  int round_ = 0;
};

TEST(ReputationTest, SparseTrackerMatchesTheDenseReferenceOverAMillionClients) {
  constexpr int kClients = 1'000'000;
  ReputationConfig config;
  config.enabled = true;
  config.patience = 2;
  config.quarantine_rounds = 2;
  ReputationTracker tracker(config, kClients);
  DenseReputation dense(config, kClients);
  EXPECT_EQ(tracker.num_records(), 0u);

  // Ids across the whole fleet, both ends included, reported flagged or
  // clean at random; some rounds skip an id.
  util::Rng rng(17);
  std::vector<int> pool = {0, 1, 4'242, 500'000, 999'998, 999'999};
  for (int i = 0; i < 10; ++i) pool.push_back(rng.UniformInt(kClients));
  std::set<int> reported;
  for (int round = 0; round < 40; ++round) {
    for (int id : pool) {
      const double u = rng.Uniform();
      if (u < 0.3) {
        tracker.ReportFlagged(id);
        dense.ReportFlagged(id);
      } else if (u < 0.85) {
        tracker.ReportClean(id);
        dense.ReportClean(id);
      } else {
        continue;
      }
      reported.insert(id);
    }
    tracker.AdvanceRound();
    dense.AdvanceRound();
    const std::vector<ReputationTracker::Transition> got =
        tracker.DrainTransitions();
    ASSERT_EQ(got.size(), dense.transitions.size()) << "round " << round;
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t].client, dense.transitions[t].client);
      EXPECT_EQ(got[t].from, dense.transitions[t].from);
      EXPECT_EQ(got[t].to, dense.transitions[t].to);
    }
    dense.transitions.clear();
  }
  EXPECT_GT(tracker.num_records(), 0u);
  EXPECT_LE(tracker.num_records(), reported.size());
  for (int id : pool) {
    EXPECT_EQ(tracker.state(id), dense.state(id)) << id;
    EXPECT_EQ(tracker.first_quarantine_round(id),
              dense.first_quarantine_round(id))
        << id;
  }
  util::ByteWriter bytes;
  util::Save(tracker, &bytes);
  EXPECT_EQ(bytes.bytes(), dense.Bytes());
}

TEST(ReputationTest, AlwaysFlaggedClientQuarantinedAtPatience) {
  ReputationConfig config;
  config.enabled = true;
  config.patience = 3;
  config.quarantine_rounds = 4;
  ReputationTracker tracker(config, 2);
  RobustCounters counters;

  for (int round = 1; round <= config.patience; ++round) {
    EXPECT_TRUE(tracker.Eligible(0)) << "round " << round;
    tracker.ReportFlagged(0);
    tracker.ReportClean(1);
    tracker.AdvanceRound();
  }
  // Quarantined at exactly round `patience` — well before 2x patience.
  EXPECT_FALSE(tracker.Eligible(0));
  EXPECT_EQ(tracker.state(0), ReputationState::kQuarantined);
  EXPECT_EQ(tracker.first_quarantine_round(0), config.patience);
  EXPECT_LT(tracker.first_quarantine_round(0), 2 * config.patience);
  FoldTransitions(&tracker, &counters);
  EXPECT_EQ(counters.quarantines, 1);
  // The clean bystander never left healthy.
  EXPECT_EQ(tracker.state(1), ReputationState::kHealthy);
}

TEST(ReputationTest, NoClientStaysInSuspectForever) {
  // Strikes never reset while suspect, so any flag/clean sequence leaves
  // the state within patience^2 reports: either `patience` flags
  // accumulate (quarantine) or `patience` consecutive cleans land first
  // (healthy). Fuzz random sequences and check the bound.
  ReputationConfig config;
  config.enabled = true;
  config.patience = 3;
  config.quarantine_rounds = 2;
  const int bound = config.patience * config.patience;

  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    ReputationTracker tracker(config, 1);
    int consecutive_suspect = 0;
    for (int round = 0; round < 200; ++round) {
      if (tracker.state(0) == ReputationState::kSuspect) {
        ++consecutive_suspect;
        ASSERT_LE(consecutive_suspect, bound) << "trial " << trial;
      } else {
        consecutive_suspect = 0;
      }
      if (tracker.Eligible(0)) {
        if (rng.Bernoulli(0.5)) {
          tracker.ReportFlagged(0);
        } else {
          tracker.ReportClean(0);
        }
      }
      tracker.AdvanceRound();
    }
  }
}

TEST(ReputationTest, RehabilitationRestoresEligibilityAndRelapsesOnFlag) {
  ReputationConfig config;
  config.enabled = true;
  config.patience = 2;
  config.quarantine_rounds = 3;
  ReputationTracker tracker(config, 1);
  RobustCounters counters;

  // Straight to quarantine.
  for (int i = 0; i < config.patience; ++i) {
    tracker.ReportFlagged(0);
    tracker.AdvanceRound();
  }
  ASSERT_EQ(tracker.state(0), ReputationState::kQuarantined);

  // Serve the full quarantine; eligibility comes back as rehabilitating.
  for (int i = 0; i < config.quarantine_rounds; ++i) {
    EXPECT_FALSE(tracker.Eligible(0));
    tracker.AdvanceRound();
  }
  EXPECT_EQ(tracker.state(0), ReputationState::kRehabilitating);
  EXPECT_TRUE(tracker.Eligible(0));

  // One flag during rehabilitation relapses immediately.
  tracker.ReportFlagged(0);
  EXPECT_EQ(tracker.state(0), ReputationState::kQuarantined);
  FoldTransitions(&tracker, &counters);
  EXPECT_EQ(counters.quarantines, 2);
  tracker.AdvanceRound();  // the round that triggered the relapse

  // Serve again, then a clean streak of `patience` promotes to healthy.
  for (int i = 0; i < config.quarantine_rounds; ++i) {
    tracker.AdvanceRound();
  }
  ASSERT_EQ(tracker.state(0), ReputationState::kRehabilitating);
  for (int i = 0; i < config.patience; ++i) {
    tracker.ReportClean(0);
    tracker.AdvanceRound();
  }
  EXPECT_EQ(tracker.state(0), ReputationState::kHealthy);
  EXPECT_TRUE(tracker.Eligible(0));
  FoldTransitions(&tracker, &counters);
  EXPECT_EQ(counters.rehabilitations, 1);
}

TEST(ReputationTest, StateRoundTripsByteEqual) {
  ReputationConfig config;
  config.enabled = true;
  config.patience = 2;
  config.quarantine_rounds = 3;
  ReputationTracker tracker(config, 4);
  // Mixed states: quarantined, suspect, healthy, rehabilitating-ish.
  tracker.ReportFlagged(0);
  tracker.ReportFlagged(1);
  tracker.AdvanceRound();
  tracker.ReportFlagged(0);
  tracker.ReportClean(2);
  tracker.AdvanceRound();

  util::ByteWriter first;
  util::Save(tracker, &first);

  ReputationTracker restored(config, 4);
  util::ByteReader reader(first.bytes());
  ASSERT_TRUE(util::Load(&reader, &restored).ok());
  util::ByteWriter second;
  util::Save(restored, &second);
  EXPECT_EQ(first.bytes(), second.bytes());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restored.state(i), tracker.state(i));
    EXPECT_EQ(restored.first_quarantine_round(i),
              tracker.first_quarantine_round(i));
  }

  // A record of a client outside the fleet is rejected.
  ReputationTracker wrong(config, 1);
  util::ByteReader bad(first.bytes());
  EXPECT_EQ(util::Load(&bad, &wrong).message(),
            "reputation record id out of range");

  // A million-client fleet with one quarantined client at its last id: the
  // restored tracker holds that one record and re-saves the same bytes.
  constexpr int kFleet = 1'000'000;
  ReputationTracker fleet(config, kFleet);
  fleet.ReportFlagged(kFleet - 1);
  fleet.ReportFlagged(kFleet - 1);
  ASSERT_EQ(fleet.state(kFleet - 1), ReputationState::kQuarantined);
  fleet.AdvanceRound();
  util::ByteWriter fleet_first;
  util::Save(fleet, &fleet_first);
  EXPECT_LT(fleet_first.size(), 64u);  // one record, not one per client
  ReputationTracker fleet_restored(config, kFleet);
  util::ByteReader fleet_reader(fleet_first.bytes());
  ASSERT_TRUE(util::Load(&fleet_reader, &fleet_restored).ok());
  EXPECT_EQ(fleet_restored.num_records(), 1u);
  EXPECT_EQ(fleet_restored.state(kFleet - 1), ReputationState::kQuarantined);
  EXPECT_EQ(fleet_restored.first_quarantine_round(kFleet - 1), 1);
  EXPECT_EQ(fleet_restored.state(kFleet - 2), ReputationState::kHealthy);
  util::ByteWriter fleet_second;
  util::Save(fleet_restored, &fleet_second);
  EXPECT_EQ(fleet_first.bytes(), fleet_second.bytes());
}

TEST(RobustCountersTest, RoundTripsByteEqual) {
  RobustCounters counters;
  counters.screened_updates = 17;
  counters.nonfinite_rejected = 3;
  counters.norm_clipped = 2;
  counters.cosine_rejected = 5;
  counters.quarantines = 1;
  util::ByteWriter writer;
  util::Save(counters, &writer);
  RobustCounters restored;
  util::ByteReader reader(writer.bytes());
  ASSERT_TRUE(util::Load(&reader, &restored).ok());
  util::ByteWriter again;
  util::Save(restored, &again);
  EXPECT_EQ(writer.bytes(), again.bytes());
  EXPECT_EQ(restored.cosine_rejected, 5);
}

// ---------------------------------------------------------------------------
// End-to-end: attacks vs defenses on a tiny workload
// ---------------------------------------------------------------------------

struct TinyWorkload {
  TinyWorkload() {
    data::SyntheticSpec spec = data::C10Spec();
    spec.train_per_class = 20;
    spec.test_per_class = 5;
    data = data::GenerateSynthetic(spec);
    topology = net::MakeC10SimTopology();
    devices = net::MakeUniformFleet(10);
    util::Rng rng(3);
    partition = data::PartitionByClassShards(data.train, 10, 1, &rng);
  }

  Trainer MakeTrainer(SchemeSetup setup) {
    return Trainer(setup.config, &data.train, partition, &data.test, topology,
                   devices,
                   [](util::Rng* rng) { return nn::MakeC10Net(rng); },
                   std::move(setup.policy));
  }

  RunResult Run(SchemeSetup setup) {
    Trainer trainer = MakeTrainer(std::move(setup));
    return trainer.Run();
  }

  data::TrainTest data;
  data::Partition partition;
  net::Topology topology;
  std::vector<net::DeviceProfile> devices;
};

SchemeSetup AttackedFedAvg(net::AttackMode mode, double fraction,
                           int epochs = 8) {
  SchemeSetup setup = MakeFedAvg();
  setup.config.max_epochs = epochs;
  setup.config.eval_every = epochs;
  setup.config.fault.attack_mode = mode;
  setup.config.fault.attack_fraction = fraction;
  return setup;
}

TEST(RobustTrainerTest, DefaultConfigScreensEveryUploadAndRejectsNothing) {
  // At defaults the non-finite gate still sees every upload of a clean
  // run, and neither rejects nor quarantines any of them.
  TinyWorkload w;
  SchemeSetup setup = MakeRandMigr(/*agg_period=*/2);
  setup.config.max_epochs = 4;
  const RunResult result = w.Run(std::move(setup));

  // Two aggregation rounds, each with all ten clients uploading.
  EXPECT_EQ(result.robust.screened_updates, 2 * 10);
  EXPECT_EQ(result.robust.nonfinite_rejected, 0);
  EXPECT_EQ(result.robust.quarantines, 0);
}

TEST(RobustTrainerTest, OneNanClientDoesNotPoisonTheRun) {
  // Satellite regression: a single client uploading NaN (diverged or
  // bricked) must be dropped at ingest by the always-on gate — with the
  // *default* inert config — and the run must keep converging.
  TinyWorkload w;
  const RunResult result =
      w.Run(AttackedFedAvg(net::AttackMode::kNanInjection, 0.1));
  EXPECT_EQ(result.epochs_run, 8);
  EXPECT_GT(result.robust.attacked_updates, 0);
  EXPECT_GT(result.robust.nonfinite_rejected, 0);
  EXPECT_TRUE(std::isfinite(result.final_accuracy));
  EXPECT_TRUE(std::isfinite(result.history.back().train_loss));
  // Nine honest clients keep learning: accuracy stays a real measurement.
  EXPECT_GT(result.final_accuracy, 0.0);
}

TEST(RobustTrainerTest, SignFlipMatrixMeanDegradesRobustRulesTolerate) {
  // 20% sign-flip on FedAvg: the weighted mean collapses, trimmed-mean and
  // Krum stay within a couple of accuracy points of their own clean runs.
  TinyWorkload w;
  auto run = [&w](AggregatorKind kind, bool attacked) {
    SchemeSetup setup = AttackedFedAvg(net::AttackMode::kSignFlip,
                                       attacked ? 0.2 : 0.0, 10);
    setup.config.eval_every = 5;
    setup.config.robust.aggregator = kind;
    return w.Run(std::move(setup));
  };

  const RunResult mean_clean = run(AggregatorKind::kMean, false);
  const RunResult mean_attacked = run(AggregatorKind::kMean, true);
  EXPECT_EQ(mean_attacked.robust.attacked_updates, 2 * 10);
  // Mean demonstrably degrades under the flip.
  EXPECT_LT(mean_attacked.best_accuracy, mean_clean.best_accuracy - 0.02);

  for (AggregatorKind kind :
       {AggregatorKind::kTrimmedMean, AggregatorKind::kKrum}) {
    const RunResult clean = run(kind, false);
    const RunResult attacked = run(kind, true);
    EXPECT_GE(attacked.best_accuracy, clean.best_accuracy - 0.02)
        << "rule " << AggregatorKindName(kind);
  }
}

TEST(RobustTrainerTest, DefenseQuarantinesEveryAttackerWithinPatience) {
  // Screening + reputation against a persistent sign-flip minority: every
  // attacker must be quarantined before round 2x patience, and quarantined
  // uploads must stop costing traffic.
  TinyWorkload w;
  SchemeSetup setup = AttackedFedAvg(net::AttackMode::kSignFlip, 0.2, 10);
  ASSERT_TRUE(ParseRobustProfile("defense", &setup.config.robust));
  const int patience = setup.config.robust.reputation.patience;
  const RunResult result = w.Run(std::move(setup));

  ASSERT_EQ(result.first_quarantine_round.size(), 10u);
  int quarantined = 0;
  for (int round : result.first_quarantine_round) {
    if (round < 0) continue;
    ++quarantined;
    EXPECT_LE(round, 2 * patience);
  }
  // 20% of 10 clients = both attackers caught. A persistent attacker that
  // serves its quarantine and relapses re-enters quarantine, so the
  // transition counter can exceed the distinct-client count.
  EXPECT_EQ(quarantined, 2);
  EXPECT_GE(result.robust.quarantines, 2);
  EXPECT_GT(result.robust.cosine_rejected, 0);
  EXPECT_GT(result.robust.quarantine_excluded, 0);
}

TEST(RobustTrainerTest, QuarantinedClientsLeaveTheMigrationActionSpace) {
  // Under a migration scheme, a quarantined client must neither send nor
  // receive C2C moves. NaN attackers are flagged every aggregation round,
  // so with the defense profile they end up quarantined, after which no
  // migration can carry their replica to an honest client. Migrations
  // *before* the first quarantine can still contaminate an honest client —
  // FedMigr's unique exposure — but the contaminated client then uploads
  // non-finite models itself, gets flagged, and is quarantined too: the
  // blast radius is contained either way, and the run stays measurable.
  TinyWorkload w;
  SchemeSetup setup = MakeRandMigr(3);
  setup.config.max_epochs = 12;
  setup.config.eval_every = 6;
  setup.config.fault.attack_mode = net::AttackMode::kNanInjection;
  setup.config.fault.attack_fraction = 0.2;
  ASSERT_TRUE(ParseRobustProfile("defense", &setup.config.robust));
  const RunResult result = w.Run(std::move(setup));

  EXPECT_EQ(result.epochs_run, 12);
  // Both attackers quarantined (plus possibly a client contaminated by a
  // pre-quarantine migration), never the whole fleet.
  int quarantined = 0;
  for (int round : result.first_quarantine_round) {
    if (round >= 0) ++quarantined;
  }
  EXPECT_GE(quarantined, 2);
  EXPECT_LE(quarantined, 4);
  // The run stays healthy: finite metrics, and the honest majority's
  // models never went non-finite (the virtual aggregate stays measurable).
  EXPECT_TRUE(std::isfinite(result.final_accuracy));
  EXPECT_GT(result.final_accuracy, 0.0);
}

TEST(RobustTrainerTest, ReputationStateSurvivesSnapshotByteEqual) {
  // Snapshot round-trip with live quarantine state: save mid-run, restore
  // into a fresh trainer, and the re-serialized state must be byte-equal.
  TinyWorkload w;
  auto make_setup = [] {
    SchemeSetup setup = AttackedFedAvg(net::AttackMode::kSignFlip, 0.2, 6);
    ParseRobustProfile("defense", &setup.config.robust);
    return setup;
  };

  Trainer trainer = w.MakeTrainer(make_setup());
  trainer.SetEpochHook(
      [](const Trainer&, int epoch) { return epoch < 4; });
  RunResult partial = trainer.Run();
  ASSERT_TRUE(partial.interrupted);

  util::ByteWriter saved;
  trainer.SaveState(&saved);

  Trainer restored = w.MakeTrainer(make_setup());
  util::ByteReader reader(saved.bytes());
  ASSERT_TRUE(restored.LoadState(&reader).ok());
  util::ByteWriter resaved;
  util::Save(restored, &resaved);
  EXPECT_EQ(saved.bytes(), resaved.bytes());

  // And the restored run finishes identically to an uninterrupted one.
  const RunResult continued = restored.Run();
  const RunResult reference = w.Run(make_setup());
  ASSERT_EQ(continued.history.size(), reference.history.size());
  for (size_t i = 0; i < continued.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(continued.history[i].train_loss,
                     reference.history[i].train_loss);
  }
  EXPECT_EQ(continued.robust.quarantines, reference.robust.quarantines);
  EXPECT_EQ(continued.first_quarantine_round,
            reference.first_quarantine_round);
}

}  // namespace
}  // namespace fedmigr::fl
