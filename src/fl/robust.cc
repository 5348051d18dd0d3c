#include "fl/robust.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/serialize.h"
#include "util/logging.h"

namespace fedmigr::fl {

// ---------------------------------------------------------------------------
// Aggregators
// ---------------------------------------------------------------------------

bool ParseAggregatorKind(const std::string& name, AggregatorKind* kind) {
  if (name == "mean") *kind = AggregatorKind::kMean;
  else if (name == "trimmed-mean") *kind = AggregatorKind::kTrimmedMean;
  else if (name == "median") *kind = AggregatorKind::kCoordinateMedian;
  else if (name == "krum") *kind = AggregatorKind::kKrum;
  else if (name == "multi-krum") *kind = AggregatorKind::kMultiKrum;
  else return false;
  return true;
}

const char* AggregatorKindName(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kMean: return "mean";
    case AggregatorKind::kTrimmedMean: return "trimmed-mean";
    case AggregatorKind::kCoordinateMedian: return "median";
    case AggregatorKind::kKrum: return "krum";
    case AggregatorKind::kMultiKrum: return "multi-krum";
  }
  return "mean";
}

void WeightedMean(const std::vector<const nn::Sequential*>& models,
                  const std::vector<double>& weights, nn::Sequential* out) {
  FEDMIGR_CHECK(!models.empty());
  FEDMIGR_CHECK_EQ(models.size(), weights.size());
  double total = 0.0;
  for (double w : weights) {
    FEDMIGR_CHECK_GE(w, 0.0);
    total += w;
  }
  FEDMIGR_CHECK_GT(total, 0.0);

  auto out_params = out->Params();
  for (nn::Tensor* p : out_params) p->Zero();
  for (size_t m = 0; m < models.size(); ++m) {
    const float alpha = static_cast<float>(weights[m] / total);
    if (alpha == 0.0f) continue;
    auto in_params = models[m]->Params();
    FEDMIGR_CHECK_EQ(in_params.size(), out_params.size());
    for (size_t p = 0; p < out_params.size(); ++p) {
      out_params[p]->Axpy(alpha, *in_params[p]);
    }
  }
}

namespace {

std::vector<std::vector<float>> FlattenAll(
    const std::vector<const nn::Sequential*>& models) {
  std::vector<std::vector<float>> flat;
  flat.reserve(models.size());
  for (const nn::Sequential* model : models) {
    flat.push_back(nn::FlattenParams(*model));
    FEDMIGR_CHECK_EQ(flat.back().size(), flat.front().size());
  }
  return flat;
}

void WriteFlat(const std::vector<float>& flat, nn::Sequential* out) {
  const util::Status status = nn::UnflattenParams(flat, out);
  FEDMIGR_CHECK(status.ok()) << status.ToString();
}

class MeanAggregator : public Aggregator {
 public:
  void Aggregate(const std::vector<const nn::Sequential*>& models,
                 const std::vector<double>& weights,
                 nn::Sequential* out) const override {
    WeightedMean(models, weights, out);
  }
  std::string name() const override { return "mean"; }
};

class TrimmedMeanAggregator : public Aggregator {
 public:
  explicit TrimmedMeanAggregator(double trim_fraction)
      : trim_fraction_(trim_fraction) {
    FEDMIGR_CHECK_GE(trim_fraction_, 0.0);
    FEDMIGR_CHECK_LT(trim_fraction_, 0.5);
  }

  void Aggregate(const std::vector<const nn::Sequential*>& models,
                 const std::vector<double>& weights,
                 nn::Sequential* out) const override {
    (void)weights;  // robust rules are unweighted by design
    FEDMIGR_CHECK(!models.empty());
    const auto flat = FlattenAll(models);
    const int n = static_cast<int>(flat.size());
    const int trim = std::min(static_cast<int>(trim_fraction_ * n),
                              (n - 1) / 2);
    std::vector<float> result(flat[0].size());
    std::vector<float> column(static_cast<size_t>(n));
    for (size_t c = 0; c < result.size(); ++c) {
      for (int m = 0; m < n; ++m) {
        column[static_cast<size_t>(m)] = flat[static_cast<size_t>(m)][c];
      }
      std::sort(column.begin(), column.end());
      double sum = 0.0;
      for (int m = trim; m < n - trim; ++m) {
        sum += column[static_cast<size_t>(m)];
      }
      result[c] = static_cast<float>(sum / (n - 2 * trim));
    }
    WriteFlat(result, out);
  }
  std::string name() const override { return "trimmed-mean"; }

 private:
  double trim_fraction_;
};

class CoordinateMedianAggregator : public Aggregator {
 public:
  void Aggregate(const std::vector<const nn::Sequential*>& models,
                 const std::vector<double>& weights,
                 nn::Sequential* out) const override {
    (void)weights;
    FEDMIGR_CHECK(!models.empty());
    const auto flat = FlattenAll(models);
    const int n = static_cast<int>(flat.size());
    std::vector<float> result(flat[0].size());
    std::vector<float> column(static_cast<size_t>(n));
    for (size_t c = 0; c < result.size(); ++c) {
      for (int m = 0; m < n; ++m) {
        column[static_cast<size_t>(m)] = flat[static_cast<size_t>(m)][c];
      }
      std::sort(column.begin(), column.end());
      result[c] = (n % 2 == 1)
                      ? column[static_cast<size_t>(n / 2)]
                      : 0.5f * (column[static_cast<size_t>(n / 2 - 1)] +
                                column[static_cast<size_t>(n / 2)]);
    }
    WriteFlat(result, out);
  }
  std::string name() const override { return "median"; }
};

class KrumAggregator : public Aggregator {
 public:
  KrumAggregator(int assumed_attackers, int multi_m, bool multi)
      : assumed_attackers_(assumed_attackers), multi_m_(multi_m),
        multi_(multi) {}

  void Aggregate(const std::vector<const nn::Sequential*>& models,
                 const std::vector<double>& weights,
                 nn::Sequential* out) const override {
    (void)weights;
    FEDMIGR_CHECK(!models.empty());
    const int n = static_cast<int>(models.size());
    if (n == 1) {
      out->CopyParamsFrom(*models[0]);
      return;
    }
    const auto flat = FlattenAll(models);

    // Krum needs n > 2f + 2; derive or clamp f accordingly, then score
    // every candidate by the sum of its n - f - 2 smallest squared
    // distances to the others.
    int f = assumed_attackers_ >= 0 ? assumed_attackers_ : (n - 3) / 2;
    f = std::max(0, std::min(f, n - 3));
    const int neighbors = std::max(1, n - f - 2);

    std::vector<std::vector<double>> dist2(
        static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        double d = 0.0;
        const auto& fa = flat[static_cast<size_t>(a)];
        const auto& fb = flat[static_cast<size_t>(b)];
        for (size_t c = 0; c < fa.size(); ++c) {
          const double delta = static_cast<double>(fa[c]) - fb[c];
          d += delta * delta;
        }
        dist2[static_cast<size_t>(a)][static_cast<size_t>(b)] = d;
        dist2[static_cast<size_t>(b)][static_cast<size_t>(a)] = d;
      }
    }
    std::vector<double> score(static_cast<size_t>(n));
    std::vector<double> row(static_cast<size_t>(n - 1));
    for (int a = 0; a < n; ++a) {
      size_t r = 0;
      for (int b = 0; b < n; ++b) {
        if (b != a) row[r++] = dist2[static_cast<size_t>(a)][static_cast<size_t>(b)];
      }
      std::sort(row.begin(), row.end());
      double s = 0.0;
      for (int m = 0; m < neighbors; ++m) s += row[static_cast<size_t>(m)];
      score[static_cast<size_t>(a)] = s;
    }

    // Stable ranking: ties break toward the lower index.
    std::vector<int> order(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    std::stable_sort(order.begin(), order.end(), [&score](int a, int b) {
      return score[static_cast<size_t>(a)] < score[static_cast<size_t>(b)];
    });

    if (!multi_) {
      out->CopyParamsFrom(*models[static_cast<size_t>(order[0])]);
      return;
    }
    const int m = std::max(1, std::min(multi_m_, n - f));
    std::vector<float> result(flat[0].size(), 0.0f);
    for (int r = 0; r < m; ++r) {
      const auto& fr = flat[static_cast<size_t>(order[static_cast<size_t>(r)])];
      for (size_t c = 0; c < result.size(); ++c) result[c] += fr[c];
    }
    const float inv = 1.0f / static_cast<float>(m);
    for (float& v : result) v *= inv;
    WriteFlat(result, out);
  }
  std::string name() const override { return multi_ ? "multi-krum" : "krum"; }

 private:
  int assumed_attackers_;
  int multi_m_;
  bool multi_;
};

}  // namespace

std::unique_ptr<Aggregator> MakeAggregator(AggregatorKind kind,
                                           const AggregatorOptions& options) {
  switch (kind) {
    case AggregatorKind::kMean:
      return std::make_unique<MeanAggregator>();
    case AggregatorKind::kTrimmedMean:
      return std::make_unique<TrimmedMeanAggregator>(options.trim_fraction);
    case AggregatorKind::kCoordinateMedian:
      return std::make_unique<CoordinateMedianAggregator>();
    case AggregatorKind::kKrum:
      return std::make_unique<KrumAggregator>(options.assumed_attackers,
                                              options.multi_krum_m, false);
    case AggregatorKind::kMultiKrum:
      return std::make_unique<KrumAggregator>(options.assumed_attackers,
                                              options.multi_krum_m, true);
  }
  return std::make_unique<MeanAggregator>();
}

// ---------------------------------------------------------------------------
// Screening
// ---------------------------------------------------------------------------

bool ParamsFinite(const nn::Sequential& model) {
  for (const nn::Tensor* p : model.Params()) {
    const float* data = p->data();
    for (int64_t i = 0; i < p->size(); ++i) {
      if (!std::isfinite(data[i])) return false;
    }
  }
  return true;
}

namespace {

// Median of an unsorted copy; even counts average the two middles.
double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return (n % 2 == 1) ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

std::vector<ScreeningVerdict> ScreenUpdates(
    const ScreeningConfig& config,
    const std::vector<const nn::Sequential*>& models,
    const std::vector<double>& weights, const nn::Sequential& reference,
    std::vector<const nn::Sequential*>* out_models,
    std::vector<double>* out_weights,
    std::vector<std::unique_ptr<nn::Sequential>>* clipped_storage,
    RobustCounters* counters) {
  FEDMIGR_CHECK_EQ(models.size(), weights.size());
  std::vector<ScreeningVerdict> verdicts(models.size());

  const std::vector<float> ref = nn::FlattenParams(reference);
  double ref_norm2 = 0.0;
  for (float v : ref) ref_norm2 += static_cast<double>(v) * v;
  const double ref_norm = std::sqrt(ref_norm2);

  // Pass 1: per-update geometry (finiteness, delta norm, cosine).
  std::vector<std::vector<float>> flats(models.size());
  std::vector<bool> finite(models.size(), true);
  std::vector<double> finite_norms;
  for (size_t m = 0; m < models.size(); ++m) {
    ++counters->screened_updates;
    ScreeningVerdict& verdict = verdicts[m];
    if (!ParamsFinite(*models[m])) {
      finite[m] = false;
      verdict.outcome = ScreeningOutcome::kNonFinite;
      verdict.update_norm = std::numeric_limits<double>::infinity();
      verdict.cosine = 0.0;
      ++counters->nonfinite_rejected;
      continue;
    }
    flats[m] = nn::FlattenParams(*models[m]);
    FEDMIGR_CHECK_EQ(flats[m].size(), ref.size());
    double delta2 = 0.0, dot = 0.0, norm2 = 0.0;
    for (size_t c = 0; c < ref.size(); ++c) {
      const double w = flats[m][c];
      const double r = ref[c];
      delta2 += (w - r) * (w - r);
      dot += w * r;
      norm2 += w * w;
    }
    verdict.update_norm = std::sqrt(delta2);
    const double denom = std::sqrt(norm2) * ref_norm;
    verdict.cosine = denom > 0.0 ? dot / denom : 0.0;
    finite_norms.push_back(verdict.update_norm);
  }
  const double median_norm = MedianOf(finite_norms);

  // Pass 2: verdicts + survivor emission.
  for (size_t m = 0; m < models.size(); ++m) {
    ScreeningVerdict& verdict = verdicts[m];
    if (!finite[m]) continue;
    if (config.cosine_reject_below > -1.0 &&
        verdict.cosine < config.cosine_reject_below) {
      verdict.outcome = ScreeningOutcome::kCosineOutlier;
      ++counters->cosine_rejected;
      continue;
    }
    if (config.norm_reject_factor > 0.0 && median_norm > 0.0 &&
        verdict.update_norm > config.norm_reject_factor * median_norm) {
      verdict.outcome = ScreeningOutcome::kNormOutlier;
      ++counters->norm_rejected;
      continue;
    }
    if (config.clip_norm > 0.0 && verdict.update_norm > config.clip_norm) {
      // Scale the delta back onto the clip ball: w' = ref + delta * s.
      const float s =
          static_cast<float>(config.clip_norm / verdict.update_norm);
      std::vector<float> clipped(ref.size());
      for (size_t c = 0; c < ref.size(); ++c) {
        clipped[c] = ref[c] + (flats[m][c] - ref[c]) * s;
      }
      auto model = std::make_unique<nn::Sequential>(*models[m]);
      WriteFlat(clipped, model.get());
      verdict.outcome = ScreeningOutcome::kClipped;
      ++counters->norm_clipped;
      out_models->push_back(model.get());
      out_weights->push_back(weights[m]);
      clipped_storage->push_back(std::move(model));
      continue;
    }
    out_models->push_back(models[m]);
    out_weights->push_back(weights[m]);
  }
  return verdicts;
}

// ---------------------------------------------------------------------------
// Reputation
// ---------------------------------------------------------------------------

ReputationTracker::ReputationTracker(const ReputationConfig& config,
                                     int num_clients)
    : config_(config), num_clients_(num_clients) {
  FEDMIGR_CHECK_GE(config_.patience, 1);
  FEDMIGR_CHECK_GE(config_.quarantine_rounds, 1);
}

ReputationState ReputationTracker::state(int client) const {
  const auto it = records_.find(client);
  return it == records_.end() ? ReputationState::kHealthy : it->second.state;
}

bool ReputationTracker::Eligible(int client) const {
  return state(client) != ReputationState::kQuarantined;
}

int ReputationTracker::first_quarantine_round(int client) const {
  const auto it = records_.find(client);
  return it == records_.end() ? -1 : it->second.first_quarantine_round;
}

void ReputationTracker::RecordTransition(int client, ReputationState from,
                                         ReputationState to) {
  transitions_.push_back(Transition{client, from, to});
}

std::vector<ReputationTracker::Transition>
ReputationTracker::DrainTransitions() {
  std::vector<Transition> drained;
  drained.swap(transitions_);
  return drained;
}

void ReputationTracker::Quarantine(int client, ClientRecord* record) {
  RecordTransition(client, record->state, ReputationState::kQuarantined);
  record->state = ReputationState::kQuarantined;
  // +1 because AdvanceRound still ticks the triggering round: the client
  // stays masked for `quarantine_rounds` *full* rounds after this one.
  record->quarantine_left = config_.quarantine_rounds + 1;
  record->strikes = 0;
  record->clean_streak = 0;
  if (record->first_quarantine_round < 0) {
    record->first_quarantine_round = round_ + 1;
  }
}

void ReputationTracker::ReportFlagged(int client) {
  if (!enabled() || client < 0 || client >= num_clients()) return;
  ClientRecord& record = records_[client];
  switch (record.state) {
    case ReputationState::kHealthy:
      RecordTransition(client, ReputationState::kHealthy,
                       ReputationState::kSuspect);
      record.state = ReputationState::kSuspect;
      record.strikes = 1;
      record.clean_streak = 0;
      if (record.strikes >= config_.patience) Quarantine(client, &record);
      break;
    case ReputationState::kSuspect:
      // Strikes accumulate and never reset inside suspect: an attacker
      // cannot oscillate clean/flagged to stay under the radar forever.
      ++record.strikes;
      record.clean_streak = 0;
      if (record.strikes >= config_.patience) Quarantine(client, &record);
      break;
    case ReputationState::kRehabilitating:
      // Zero tolerance during rehabilitation.
      Quarantine(client, &record);
      break;
    case ReputationState::kQuarantined:
      break;  // quarantined clients do not upload; defensive no-op
  }
}

void ReputationTracker::ReportClean(int client) {
  // A client without a record is healthy: a clean report changes nothing.
  const auto it = records_.find(client);
  if (!enabled() || it == records_.end()) return;
  ClientRecord& record = it->second;
  switch (record.state) {
    case ReputationState::kSuspect:
      ++record.clean_streak;
      if (record.clean_streak >= config_.patience) {
        RecordTransition(client, ReputationState::kSuspect,
                         ReputationState::kHealthy);
        record.state = ReputationState::kHealthy;
        record.strikes = 0;
        record.clean_streak = 0;
      }
      break;
    case ReputationState::kRehabilitating:
      ++record.clean_streak;
      break;  // promotion happens at the round tick (AdvanceRound)
    case ReputationState::kHealthy:
    case ReputationState::kQuarantined:
      break;
  }
}

void ReputationTracker::AdvanceRound() {
  if (!enabled()) return;
  ++round_;
  for (auto& [client, record] : records_) {
    if (record.state == ReputationState::kQuarantined) {
      if (--record.quarantine_left <= 0) {
        RecordTransition(client, ReputationState::kQuarantined,
                         ReputationState::kRehabilitating);
        record.state = ReputationState::kRehabilitating;
        record.strikes = 0;
        record.clean_streak = 0;
      }
    } else if (record.state == ReputationState::kRehabilitating &&
               record.clean_streak >= config_.patience) {
      RecordTransition(client, ReputationState::kRehabilitating,
                       ReputationState::kHealthy);
      record.state = ReputationState::kHealthy;
      record.strikes = 0;
      record.clean_streak = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Profiles + attacks
// ---------------------------------------------------------------------------

bool ParseRobustProfile(const std::string& name, RobustConfig* config) {
  if (name == "off") {
    config->screening = ScreeningConfig{};
    config->reputation = ReputationConfig{};
    return true;
  }
  if (name == "screen" || name == "defense") {
    config->screening.norm_reject_factor = 4.0;
    config->screening.cosine_reject_below = -0.2;
    config->reputation.enabled = (name == "defense");
    return true;
  }
  return false;
}

void ApplyAttack(net::AttackMode mode, double scale, util::Rng* rng,
                 nn::Sequential* model) {
  switch (mode) {
    case net::AttackMode::kNone:
      return;
    case net::AttackMode::kSignFlip:
      for (nn::Tensor* p : model->Params()) {
        float* data = p->data();
        for (int64_t i = 0; i < p->size(); ++i) data[i] = -data[i];
      }
      return;
    case net::AttackMode::kGaussianNoise:
      for (nn::Tensor* p : model->Params()) {
        float* data = p->data();
        for (int64_t i = 0; i < p->size(); ++i) {
          data[i] += static_cast<float>(rng->Normal(0.0, scale));
        }
      }
      return;
    case net::AttackMode::kScaledModel:
      for (nn::Tensor* p : model->Params()) {
        p->Scale(static_cast<float>(scale));
      }
      return;
    case net::AttackMode::kSilentCorruption: {
      // Sparse finite garbage: ~1% of coordinates overwritten with +/-scale.
      // Serialized *after* tampering, so CRC32 framing and the NaN gate both
      // pass; only geometry screening (norm/cosine) can catch it.
      std::vector<float> flat = nn::FlattenParams(*model);
      const int64_t n = static_cast<int64_t>(flat.size());
      const int64_t hits = std::max<int64_t>(1, n / 100);
      for (int64_t h = 0; h < hits; ++h) {
        const int idx = rng->UniformInt(static_cast<int>(n));
        flat[static_cast<size_t>(idx)] =
            (h % 2 == 0) ? static_cast<float>(scale)
                         : -static_cast<float>(scale);
      }
      const util::Status status = nn::UnflattenParams(flat, model);
      FEDMIGR_CHECK(status.ok()) << status.ToString();
      return;
    }
    case net::AttackMode::kNanInjection:
      for (nn::Tensor* p : model->Params()) {
        p->Fill(std::numeric_limits<float>::quiet_NaN());
      }
      return;
  }
}

}  // namespace fedmigr::fl
