#include "net/fault.h"

#include <algorithm>
#include <functional>
#include <set>

#include "util/logging.h"

namespace fedmigr::net {

namespace {

// Epoch window test shared by the explicit schedules and the recurring
// generators.
bool InWindow(int epoch, int start_epoch, int duration_epochs) {
  return epoch >= start_epoch && epoch < start_epoch + duration_epochs;
}

bool InRecurringWindow(int epoch, int period, int phase, int duration) {
  if (period <= 0 || epoch < phase) return false;
  return (epoch - phase) % period < duration;
}

}  // namespace

bool ParseAttackMode(const std::string& name, AttackMode* mode) {
  if (name == "none") *mode = AttackMode::kNone;
  else if (name == "sign-flip") *mode = AttackMode::kSignFlip;
  else if (name == "gaussian") *mode = AttackMode::kGaussianNoise;
  else if (name == "scale") *mode = AttackMode::kScaledModel;
  else if (name == "silent") *mode = AttackMode::kSilentCorruption;
  else if (name == "nan") *mode = AttackMode::kNanInjection;
  else return false;
  return true;
}

const char* AttackModeName(AttackMode mode) {
  switch (mode) {
    case AttackMode::kNone: return "none";
    case AttackMode::kSignFlip: return "sign-flip";
    case AttackMode::kGaussianNoise: return "gaussian";
    case AttackMode::kScaledModel: return "scale";
    case AttackMode::kSilentCorruption: return "silent";
    case AttackMode::kNanInjection: return "nan";
  }
  return "none";
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config),
      rng_(config.seed),
      attack_rng_(config.seed * 7919ULL + 13ULL) {
  FEDMIGR_CHECK_GE(config_.link_failure_prob, 0.0);
  FEDMIGR_CHECK_LT(config_.link_failure_prob, 1.0);
  FEDMIGR_CHECK_GE(config_.bandwidth_jitter, 0.0);
  FEDMIGR_CHECK_GE(config_.crash_prob, 0.0);
  FEDMIGR_CHECK_LT(config_.crash_prob, 1.0);
  FEDMIGR_CHECK_GE(config_.crash_min_epochs, 1);
  FEDMIGR_CHECK_GE(config_.crash_max_epochs, config_.crash_min_epochs);
  FEDMIGR_CHECK_GE(config_.straggler_prob, 0.0);
  FEDMIGR_CHECK_LE(config_.straggler_prob, 1.0);
  FEDMIGR_CHECK_GE(config_.straggler_slowdown, 1.0);
  FEDMIGR_CHECK_GE(config_.corruption_prob, 0.0);
  FEDMIGR_CHECK_LE(config_.corruption_prob, 1.0);
  FEDMIGR_CHECK_GE(config_.max_retries, 0);
  FEDMIGR_CHECK_GE(config_.backoff_base_s, 0.0);
  FEDMIGR_CHECK_GT(config_.transfer_deadline_s, 0.0);
  FEDMIGR_CHECK_GT(config_.upload_deadline_s, 0.0);
  FEDMIGR_CHECK_GE(config_.attack_fraction, 0.0);
  FEDMIGR_CHECK_LE(config_.attack_fraction, 1.0);
  for (const PartitionWindow& w : config_.chaos.partitions) {
    FEDMIGR_CHECK_GE(w.lan, 0);
    FEDMIGR_CHECK_GE(w.start_epoch, 1);
    FEDMIGR_CHECK_GE(w.duration_epochs, 1);
  }
  for (const OutageWindow& w : config_.chaos.outages) {
    FEDMIGR_CHECK_GE(w.start_epoch, 1);
    FEDMIGR_CHECK_GE(w.duration_epochs, 1);
  }
  FEDMIGR_CHECK_GE(config_.chaos.partition_period, 0);
  FEDMIGR_CHECK_GE(config_.chaos.outage_period, 0);
  FEDMIGR_CHECK_GE(config_.chaos.churn_rate, 0.0);
  FEDMIGR_CHECK_LT(config_.chaos.churn_rate, 1.0);
}

bool FaultInjector::LanSealed(int lan, int epoch) const {
  if (lan < 0 || epoch <= 0) return false;  // the server lives in no LAN
  const ChaosConfig& chaos = config_.chaos;
  for (const PartitionWindow& w : chaos.partitions) {
    if (w.lan == lan && InWindow(epoch, w.start_epoch, w.duration_epochs)) {
      return true;
    }
  }
  return lan == chaos.partition_lan &&
         InRecurringWindow(epoch, chaos.partition_period, chaos.partition_phase,
                           chaos.partition_epochs);
}

bool FaultInjector::ServerDown(int epoch) const {
  if (epoch <= 0) return false;
  const ChaosConfig& chaos = config_.chaos;
  for (const OutageWindow& w : chaos.outages) {
    if (InWindow(epoch, w.start_epoch, w.duration_epochs)) return true;
  }
  return InRecurringWindow(epoch, chaos.outage_period, chaos.outage_phase,
                           chaos.outage_epochs);
}

int FaultInjector::ActivePartitions(int epoch) const {
  std::set<int> sealed;
  for (const PartitionWindow& w : config_.chaos.partitions) {
    if (InWindow(epoch, w.start_epoch, w.duration_epochs)) sealed.insert(w.lan);
  }
  if (InRecurringWindow(epoch, config_.chaos.partition_period,
                        config_.chaos.partition_phase,
                        config_.chaos.partition_epochs)) {
    sealed.insert(config_.chaos.partition_lan);
  }
  return static_cast<int>(sealed.size());
}

bool FaultInjector::ChurnedOut(int client, int64_t round) const {
  const double rate = config_.chaos.churn_rate;
  if (rate <= 0.0 || client < 0) return false;
  // splitmix64-style mix of (seed, round, client): pure, so membership is
  // identical across resumes and independent of every RNG stream.
  uint64_t z = config_.chaos.churn_seed +
               0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(round) + 1) +
               0xbf58476d1ce4e5b9ULL * (static_cast<uint64_t>(client) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  return u < rate;
}

void FaultInjector::BeginEpoch(int num_clients) {
  if (!enabled()) return;
  ++epoch_;
  if (config_.attacks_enabled() && !attackers_sampled_) {
    // One-time persistent Byzantine set: round(f * K) distinct clients.
    const int count = std::min(
        num_clients,
        static_cast<int>(config_.attack_fraction * num_clients + 0.5));
    attackers_ = attack_rng_.SampleWithoutReplacement(num_clients, count);
    std::sort(attackers_.begin(), attackers_.end());
    attackers_sampled_ = true;
  }
  // Chaos-only configs draw no per-client randomness: skipping the roll
  // loop keeps the RNG stream (and so the whole trajectory) byte-identical
  // to a run without the chaos schedule.
  if (config_.crash_prob <= 0.0 && config_.straggler_prob <= 0.0) return;
  stragglers_.clear();
  // Every client is rolled in id order; `held` walks the crashed ones.
  auto held = down_epochs_.begin();
  for (int i = 0; i < num_clients; ++i) {
    const bool was_down = held != down_epochs_.end() && held->first == i;
    int down = was_down ? held->second - 1 : 0;
    if (down == 0 && config_.crash_prob > 0.0 &&
        rng_.Bernoulli(config_.crash_prob)) {
      const int span = config_.crash_max_epochs - config_.crash_min_epochs;
      down = config_.crash_min_epochs +
             (span > 0 ? rng_.UniformInt(span + 1) : 0);
      ++counters_.crashes;
    }
    if (down > 0) {
      ++counters_.crash_epochs;
      if (was_down) {
        (held++)->second = down;
      } else {
        down_epochs_.emplace_hint(held, i, down);
      }
    } else if (was_down) {
      held = down_epochs_.erase(held);
    }
    if (config_.straggler_prob > 0.0 &&
        rng_.Bernoulli(config_.straggler_prob)) {
      stragglers_.push_back(i);
    }
  }
}

bool FaultInjector::ValidFor(int num_clients) const {
  const auto id_set = [num_clients](const std::vector<int>& ids) {
    return (ids.empty() || (ids.front() >= 0 && ids.back() < num_clients)) &&
           std::adjacent_find(ids.begin(), ids.end(),
                              std::greater_equal<>()) == ids.end();
  };
  return id_set(stragglers_) && id_set(attackers_) &&
         std::all_of(down_epochs_.begin(), down_epochs_.end(),
                     [num_clients](const std::pair<const int, int>& down) {
                       return down.first >= 0 && down.first < num_clients &&
                              down.second > 0;
                     });
}

bool FaultInjector::IsCrashed(int client) const {
  return down_epochs_.contains(client);
}

bool FaultInjector::IsAttacker(int client) const {
  return std::binary_search(attackers_.begin(), attackers_.end(), client);
}

double FaultInjector::SlowdownFactor(int client) const {
  return std::binary_search(stragglers_.begin(), stragglers_.end(), client)
             ? config_.straggler_slowdown
             : 1.0;
}

double FaultInjector::AttemptSeconds(int src, int dst, int64_t bytes,
                                     const Topology& topology) {
  double seconds = topology.TransferSeconds(src, dst, bytes);
  seconds *= std::max(SlowdownFactor(src), SlowdownFactor(dst));
  if (config_.bandwidth_jitter > 0.0) {
    seconds *= 1.0 + rng_.Uniform(0.0, config_.bandwidth_jitter);
  }
  return seconds;
}

TransferResult FaultInjector::Transfer(int src, int dst, int64_t bytes,
                                       const Topology& topology,
                                       TrafficAccountant* traffic) {
  TransferResult result;
  if (!enabled()) {
    // Strict no-op path: identical accounting to the direct transfer, no
    // RNG draws, no counter churn.
    result.seconds = topology.TransferSeconds(src, dst, bytes);
    result.bytes = bytes;
    result.attempts = 1;
    if (traffic != nullptr) traffic->Record(src, dst, bytes);
    return result;
  }

  // Chaos schedule refusals come first and fail fast: the sender burns one
  // connection-setup latency, pushes no payload, and — deliberately — draws
  // no RNG, so a partition window leaves the link-fault stream untouched.
  if (config_.chaos.has_outages() && ServerDown(epoch_) &&
      (src == kServerId || dst == kServerId)) {
    ++counters_.outage_transfers;
    result.seconds = topology.config().link_latency_s;
    result.status = util::Status::Unavailable(
        "transfer " + std::to_string(src) + "->" + std::to_string(dst) +
        " refused: edge server down");
    return result;
  }
  if (config_.chaos.has_partitions()) {
    const int src_lan = src == kServerId ? -1 : topology.lan_of(src);
    const int dst_lan = dst == kServerId ? -1 : topology.lan_of(dst);
    if (src_lan != dst_lan &&
        (LanSealed(src_lan, epoch_) || LanSealed(dst_lan, epoch_))) {
      ++counters_.partitioned_transfers;
      result.seconds = topology.config().link_latency_s;
      result.status = util::Status::Unavailable(
          "transfer " + std::to_string(src) + "->" + std::to_string(dst) +
          " refused: LAN boundary sealed by partition");
      return result;
    }
  }

  const int max_attempts = 1 + config_.max_retries;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const double attempt_seconds = AttemptSeconds(src, dst, bytes, topology);
    if (result.seconds + attempt_seconds > config_.transfer_deadline_s) {
      // Not enough deadline left for another attempt: the sender waits out
      // the deadline and gives up. Bytes already spent stay charged.
      ++counters_.deadline_aborts;
      ++counters_.aborted_transfers;
      result.seconds = config_.transfer_deadline_s;
      result.status = util::Status::DeadlineExceeded(
          "transfer " + std::to_string(src) + "->" + std::to_string(dst) +
          " abandoned at deadline");
      return result;
    }

    ++result.attempts;
    ++counters_.attempts;
    result.seconds += attempt_seconds;
    // A failed attempt still pushed the full payload into the network: the
    // bytes are spent whether or not the far end got them.
    result.bytes += bytes;
    if (traffic != nullptr) traffic->Record(src, dst, bytes);

    const bool failed = config_.link_failure_prob > 0.0 &&
                        rng_.Bernoulli(config_.link_failure_prob);
    if (!failed) {
      if (config_.corruption_prob > 0.0 &&
          rng_.Bernoulli(config_.corruption_prob)) {
        result.corrupted = true;
        ++counters_.corrupted;
      }
      return result;
    }
    ++counters_.failures;
    if (attempt + 1 < max_attempts) {
      ++counters_.retries;
      result.seconds += config_.backoff_base_s * static_cast<double>(1 << attempt);
    }
  }
  ++counters_.aborted_transfers;
  result.status = util::Status::Unavailable(
      "transfer " + std::to_string(src) + "->" + std::to_string(dst) +
      " failed after " + std::to_string(max_attempts) + " attempts");
  return result;
}

}  // namespace fedmigr::net
