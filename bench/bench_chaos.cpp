// Infrastructure chaos — convergence under LAN partition storms,
// edge-server outages and fleet churn, with and without the round-progress
// watchdog.
//
// Not a figure of the paper: the paper assumes the infrastructure stays up,
// but its own setting (edge nodes that "dynamically join and leave",
// LAN-of-LANs behind WAN links) makes partitions, server outages and churn
// the realistic regime. This bench runs one cohort-scheduled fleet through
// a fixed chaos script — recurring partition storms that seal five of the
// six LANs (including one timed to cover the final aggregation), a periodic
// edge-server outage and 20% per-round fleet churn — under three
// conditions:
//
//   fault-free      no chaos, the calibration baseline
//   watchdog        chaos + quorum 0.5: a round commits only when half the
//                   expected uploads arrived; misses keep the last published
//                   aggregate and carry the survivors' updates forward
//   no-watchdog     chaos + quorum 0: every round commits, so a storm round
//                   aggregates whatever single LAN could reach the server
//                   and the global model lurches toward its label skew
//
// Expected shape (mean over three seeds): the watchdog run finishes within
// ~5 points of fault-free — it trades a handful of skipped rounds for an
// aggregate that is never a single-LAN artifact — while the no-watchdog run
// finishes far below its own best because the terminal storm poisons its
// final publish. The bench also reconciles the chaos ledger: every planned
// migration is completed, completed-via-fallback, or rolled back — nothing
// is silently lost.
//
// Flags: --epochs=N (default 120), --json-out=PATH (google-benchmark JSON,
// same schema family as BENCH_nn_ops.json: `real_time` and `cpu_time` are
// the measured host seconds per run, `sim_time_s` the simulated run time),
// plus the shared telemetry flags.

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/file.h"
#include "util/logging.h"

namespace {

using namespace fedmigr;

struct Condition {
  const char* name;
  bool chaos;
  double quorum;
};

struct ChaosPoint {
  std::string name;
  fl::RunResult result;
  // Totals re-derived from the persisted journal files (all seeds),
  // reconciled against the ChaosCounters the trainer folded from its own
  // event stream when --journal-out is given.
  obs::JournalSummary journal;
  int64_t epochs_run = 0;
  // Host cost per run (mean over seeds): wall-clock and process CPU.
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// The chaos script: a two-epoch partition storm every 40 epochs (each
// seals five of the six LANs, a different survivor per storm) plus one
// timed to cover the final aggregation round, an edge-server outage every
// 35 epochs, and 20% per-round churn.
net::ChaosConfig MakeChaosScript(int num_lans, int epochs) {
  net::ChaosConfig chaos;
  int survivor = 0;
  for (int start = 10; start <= epochs; start += 40, ++survivor) {
    for (int lan = 0; lan < num_lans; ++lan) {
      if (lan != survivor % num_lans) chaos.partitions.push_back({lan, start, 2});
    }
  }
  for (int lan = 1; lan < num_lans; ++lan) {
    chaos.partitions.push_back({lan, epochs - 1, 2});
  }
  chaos.outage_period = 35;
  chaos.outage_phase = 5;
  chaos.outage_epochs = 1;
  chaos.churn_rate = 0.2;
  return chaos;
}

std::string JsonReport(const std::vector<ChaosPoint>& points, int epochs) {
  std::string out;
  out += "{\n  \"context\": {\n";
  out += "    \"executable\": \"bench_chaos\",\n";
  out += "    \"epochs\": " + std::to_string(epochs) + "\n";
  out += "  },\n  \"benchmarks\": [\n";
  for (size_t p = 0; p < points.size(); ++p) {
    const fl::RunResult& r = points[p].result;
    char buffer[1024];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\n"
        "      \"name\": \"chaos/%s\",\n"
        "      \"run_type\": \"iteration\",\n"
        "      \"iterations\": 1,\n"
        "      \"real_time\": %.6e,\n"
        "      \"cpu_time\": %.6e,\n"
        "      \"time_unit\": \"s\",\n"
        "      \"sim_time_s\": %.6e,\n"
        "      \"final_accuracy\": %.6f,\n"
        "      \"best_accuracy\": %.6f,\n"
        "      \"traffic_gb\": %.6f,\n"
        "      \"quorum_commits\": %lld,\n"
        "      \"quorum_misses\": %lld,\n"
        "      \"carryover_clients\": %lld,\n"
        "      \"churn_absences\": %lld,\n"
        "      \"churn_departures\": %lld,\n"
        "      \"migrations_planned\": %lld,\n"
        "      \"migrations_completed\": %lld,\n"
        "      \"migration_fallbacks\": %lld,\n"
        "      \"migrations_rolled_back\": %lld,\n"
        "      \"partitioned_transfers\": %lld,\n"
        "      \"outage_transfers\": %lld\n"
        "    }%s\n",
        points[p].name.c_str(), points[p].wall_s, points[p].cpu_s, r.time_s,
        r.final_accuracy,
        r.best_accuracy, r.traffic_gb,
        static_cast<long long>(r.chaos.quorum_commits),
        static_cast<long long>(r.chaos.quorum_misses),
        static_cast<long long>(r.chaos.carryover_clients),
        static_cast<long long>(r.chaos.churn_absences),
        static_cast<long long>(r.chaos.churn_departures),
        static_cast<long long>(r.chaos.migrations_planned),
        static_cast<long long>(r.chaos.migrations_completed),
        static_cast<long long>(r.chaos.migration_fallbacks),
        static_cast<long long>(r.chaos.migrations_rolled_back),
        static_cast<long long>(r.faults.partitioned_transfers),
        static_cast<long long>(r.faults.outage_transfers),
        p + 1 < points.size() ? "," : "");
    out += buffer;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TelemetryFlags telemetry_flags =
      bench::ParseTelemetryFlags(argc, argv);
  // --journal-out=DIR records one flight-recorder journal per (condition,
  // seed) run and adds a journal-vs-counters reconciliation table; without
  // the flag the output stays byte-identical.
  const bench::JournalFlags journal_flags =
      bench::ParseJournalFlags(argc, argv);
  bench::BeginTelemetry(telemetry_flags);

  int epochs = 120;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      epochs = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    }
  }
  FEDMIGR_CHECK_GT(epochs, 0);

  bench::BenchWorkloadOptions workload_options;
  workload_options.num_clients = 60;
  workload_options.num_lans = 6;
  workload_options.partition = core::PartitionKind::kLanShard;
  const core::Workload workload = bench::MakeBenchWorkload(workload_options);

  std::printf(
      "Infrastructure chaos: convergence under partition storms, server\n"
      "outages and 20%% fleet churn (C10 analogue, LAN-correlated non-IID,\n"
      "60 clients / 6 LANs, cohort 16, agg every 2, %d epochs, mean over 3\n"
      "seeds)\n\n",
      epochs);

  const Condition conditions[] = {
      {"fault-free", false, 0.0},
      {"watchdog", true, 0.5},
      {"no-watchdog", true, 0.0},
  };

  util::TableWriter table(
      {"condition", "acc (%)", "best (%)", "traffic (GB)", "up (GB)",
       "down (GB)", "commits", "misses", "carryover", "absent", "departed",
       "migr plan", "migr done", "rolled back", "part/out xfers"});
  const uint64_t seeds[] = {1, 2, 3};
  const int num_seeds = static_cast<int>(sizeof(seeds) / sizeof(seeds[0]));
  std::vector<ChaosPoint> points;
  for (const Condition& condition : conditions) {
    // Mean over seeds: the 250-sample synthetic test set quantizes accuracy
    // to 0.4-point steps, so single-seed deltas are mostly noise.
    fl::RunResult result;
    obs::JournalSummary journal_total;
    int64_t epochs_total = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    for (uint64_t seed : seeds) {
      bench::BenchRunOptions run;
      run.max_epochs = epochs;
      run.agg_period = 2;
      run.eval_every = 10;
      run.cohort_size = 16;
      run.quorum_fraction = condition.quorum;
      run.seed = seed;
      if (condition.chaos) {
        run.fault.chaos = MakeChaosScript(workload_options.num_lans, epochs);
        run.fault.chaos.churn_seed = 101 + seed;
      }
      // All three conditions run the same (scheme, seed) pair, so the run
      // name carries the condition to keep the journal files apart.
      const std::string run_name =
          std::string(condition.name) + "-s" + std::to_string(seed);
      const obs::Stopwatch wall;
      const std::clock_t cpu_start = std::clock();
      const fl::RunResult one =
          bench::RunBenchNamed(workload, "randmigr", run,
                               bench::SnapshotFlags(), journal_flags,
                               run_name);
      wall_s += wall.ElapsedSeconds() / num_seeds;
      cpu_s += static_cast<double>(std::clock() - cpu_start) /
               CLOCKS_PER_SEC / num_seeds;
      if (journal_flags.enabled()) {
        const util::Result<obs::JournalContents> contents =
            obs::ReadJournalFile(journal_flags.PathFor(run_name));
        FEDMIGR_CHECK(contents.ok())
            << "journal read failed for " << run_name << ": "
            << contents.status().ToString();
        FEDMIGR_CHECK(contents->has_summary)
            << "journal for " << run_name << " is missing its summary chunk";
        // Reconciliation half one: the summary chunk must re-derive exactly
        // from the event stream it summarizes.
        const obs::JournalSummary derived =
            obs::SummarizeJournalEvents(contents->events);
        FEDMIGR_CHECK_EQ(contents->summary.epochs_run, derived.epochs_run);
        FEDMIGR_CHECK_EQ(contents->summary.migrations_planned,
                         derived.migrations_planned);
        journal_total.epochs_run += derived.epochs_run;
        journal_total.migrations_planned += derived.migrations_planned;
        journal_total.migrations_completed += derived.migrations_completed;
        journal_total.migration_fallbacks += derived.migration_fallbacks;
        journal_total.migrations_rolled_back +=
            derived.migrations_rolled_back;
        journal_total.quorum_commits += derived.quorum_commits;
        journal_total.quorum_misses += derived.quorum_misses;
        journal_total.carryover_clients += derived.carryover_clients;
        journal_total.churn_absences += derived.churn_absences;
        journal_total.churn_departures += derived.churn_departures;
        journal_total.quarantines += derived.quarantines;
        journal_total.model_publishes += derived.model_publishes;
        epochs_total += one.epochs_run;
      }
      result.final_accuracy += one.final_accuracy / num_seeds;
      result.best_accuracy += one.best_accuracy / num_seeds;
      result.traffic_gb += one.traffic_gb / num_seeds;
      result.c2s_up_gb += one.c2s_up_gb / num_seeds;
      result.c2s_down_gb += one.c2s_down_gb / num_seeds;
      result.time_s += one.time_s / num_seeds;
      fl::ChaosCounters& c = result.chaos;
      const fl::ChaosCounters& o = one.chaos;
      c.migrations_planned += o.migrations_planned;
      c.migrations_completed += o.migrations_completed;
      c.migration_fallbacks += o.migration_fallbacks;
      c.migrations_rolled_back += o.migrations_rolled_back;
      c.quorum_commits += o.quorum_commits;
      c.quorum_misses += o.quorum_misses;
      c.carryover_clients += o.carryover_clients;
      c.churn_absences += o.churn_absences;
      c.churn_departures += o.churn_departures;
      result.faults.partitioned_transfers += one.faults.partitioned_transfers;
      result.faults.outage_transfers += one.faults.outage_transfers;
    }

    // The chaos ledger must reconcile: every planned migration either
    // completed (directly or via the server fallback) or rolled back to its
    // source — no orphaned lineages. The trainer CHECK-fails on an orphan,
    // so reaching this line already proves atomicity; the arithmetic proves
    // the counters tell the whole story.
    const fl::ChaosCounters& chaos = result.chaos;
    FEDMIGR_CHECK_EQ(chaos.migrations_planned,
                     chaos.migrations_completed + chaos.migration_fallbacks +
                         chaos.migrations_rolled_back)
        << "chaos ledger does not reconcile for " << condition.name;

    // Reconciliation half two: the totals parsed back from the files must
    // match the ChaosCounters the trainer folded in memory.
    if (journal_flags.enabled()) {
      FEDMIGR_CHECK_EQ(journal_total.epochs_run, epochs_total)
          << "journal epochs diverge for " << condition.name;
      FEDMIGR_CHECK_EQ(journal_total.migrations_planned,
                       chaos.migrations_planned)
          << "journal migrations diverge for " << condition.name;
      FEDMIGR_CHECK_EQ(journal_total.migrations_completed,
                       chaos.migrations_completed);
      FEDMIGR_CHECK_EQ(journal_total.migration_fallbacks,
                       chaos.migration_fallbacks);
      FEDMIGR_CHECK_EQ(journal_total.migrations_rolled_back,
                       chaos.migrations_rolled_back);
      FEDMIGR_CHECK_EQ(journal_total.quorum_commits, chaos.quorum_commits);
      FEDMIGR_CHECK_EQ(journal_total.quorum_misses, chaos.quorum_misses);
      FEDMIGR_CHECK_EQ(journal_total.carryover_clients,
                       chaos.carryover_clients);
      FEDMIGR_CHECK_EQ(journal_total.churn_absences, chaos.churn_absences);
      FEDMIGR_CHECK_EQ(journal_total.churn_departures,
                       chaos.churn_departures);
    }

    table.AddRow();
    table.AddCell(condition.name);
    table.AddCell(100.0 * result.final_accuracy, 1);
    table.AddCell(100.0 * result.best_accuracy, 1);
    table.AddCell(result.traffic_gb, 3);
    table.AddCell(result.c2s_up_gb, 3);
    table.AddCell(result.c2s_down_gb, 3);
    table.AddCell(static_cast<int>(chaos.quorum_commits));
    table.AddCell(static_cast<int>(chaos.quorum_misses));
    table.AddCell(static_cast<int>(chaos.carryover_clients));
    table.AddCell(static_cast<int>(chaos.churn_absences));
    table.AddCell(static_cast<int>(chaos.churn_departures));
    table.AddCell(static_cast<int>(chaos.migrations_planned));
    table.AddCell(static_cast<int>(chaos.migrations_completed +
                                   chaos.migration_fallbacks));
    table.AddCell(static_cast<int>(chaos.migrations_rolled_back));
    table.AddCell(static_cast<int>(result.faults.partitioned_transfers +
                                   result.faults.outage_transfers));
    points.push_back(
        {condition.name, result, journal_total, epochs_total, wall_s, cpu_s});
  }
  table.Print(std::cout);

  if (journal_flags.enabled()) {
    // Every cell below was cross-checked twice before printing: summary
    // chunk vs event stream per run, event totals vs ChaosCounters per
    // condition (the FEDMIGR_CHECK_EQs above).
    std::printf(
        "\nFlight-recorder reconciliation (journal-derived totals, all "
        "seeds):\n\n");
    util::TableWriter recon(
        {"condition", "epochs", "publishes", "migr plan", "migr c2c",
         "fallback", "rolled back", "commits", "misses", "carryover",
         "absent", "departed", "vs counters"});
    for (const ChaosPoint& point : points) {
      const obs::JournalSummary& j = point.journal;
      recon.AddRow();
      recon.AddCell(point.name);
      recon.AddCell(static_cast<int>(j.epochs_run));
      recon.AddCell(static_cast<int>(j.model_publishes));
      recon.AddCell(static_cast<int>(j.migrations_planned));
      recon.AddCell(static_cast<int>(j.migrations_completed));
      recon.AddCell(static_cast<int>(j.migration_fallbacks));
      recon.AddCell(static_cast<int>(j.migrations_rolled_back));
      recon.AddCell(static_cast<int>(j.quorum_commits));
      recon.AddCell(static_cast<int>(j.quorum_misses));
      recon.AddCell(static_cast<int>(j.carryover_clients));
      recon.AddCell(static_cast<int>(j.churn_absences));
      recon.AddCell(static_cast<int>(j.churn_departures));
      recon.AddCell("ok");
    }
    recon.Print(std::cout);
  }

  const double fault_free = points[0].result.final_accuracy;
  const double watchdog = points[1].result.final_accuracy;
  const double unguarded = points[2].result.final_accuracy;
  std::printf(
      "\nReading: the watchdog run finishes %.1f points below fault-free "
      "(quorum\nmisses keep storm rounds from poisoning the aggregate); "
      "without the\nwatchdog the gap is %.1f points — the terminal storm "
      "publishes a\nsingle-LAN aggregate and the run ends %.1f points below "
      "its own best.\n",
      100.0 * (fault_free - watchdog), 100.0 * (fault_free - unguarded),
      100.0 * (points[2].result.best_accuracy - unguarded));

  if (!json_out.empty()) {
    const std::string report = JsonReport(points, epochs);
    const util::Status status = util::AtomicWriteFile(
        json_out, std::vector<uint8_t>(report.begin(), report.end()));
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", json_out.c_str(),
                   status.message().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  }
  bench::FinishTelemetry(telemetry_flags);
  return 0;
}
