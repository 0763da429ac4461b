// Figure 17 reproduction: SM upholds availability during software upgrades.
//
// Paper setup (§8.2): a primary-only application with 10,000 shards on 60 servers; the app
// allows up to 10% of its containers to restart concurrently during a rolling upgrade. Three
// configurations:
//   (1) SM            — TaskController drains primaries, graceful 5-step migration: ~100%
//   (2) no graceful   — TaskController + drain, but break-before-make primary moves: ~98%
//   (3) neither       — no TaskController, no drain: upgrade finishes sooner, success < 90%
//
// This reproduction scales the shard count by SM_BENCH_SCALE (default 2,000 shards on 60
// servers; the availability mechanics are per-container, so shard density only scales event
// volume). Client traffic is a 200 rps open-loop Poisson source, half writes. The output is the
// success-rate time series per configuration (the Fig. 17 curves) and a summary with upgrade
// durations, success-only p99.9 and SLO attainment — expect (3) to finish fastest but with the
// lowest success rate, matching the paper's ordering.

#include <iostream>

#include "bench/bench_util.h"
#include "src/obs/obs.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

using namespace shardman;
using namespace shardman::bench;

namespace {

struct RunOutput {
  std::vector<SloAccount> series;
  SloAccount totals;
  double upgrade_seconds = 0.0;
  int64_t graceful = 0;
  int64_t abrupt = 0;
  int64_t failed_ops = 0;
};

RunOutput RunConfig(bool graceful_migration, bool task_controller, int shards) {
  // Each configuration reports from its own metrics window (registrations persist; values zero).
  obs::DefaultMetrics().ResetValues();
  TestbedConfig config;
  config.sim_shards = SimShardsFromEnv();  // DESIGN.md §13; default stays single-shard
  config.sim_threads = SimThreadsFromEnv();
  config.regions = {"r0"};
  config.servers_per_region = 60;
  config.app = MakeUniformAppSpec(AppId(1), "fig17", shards, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.placement.max_concurrent_moves_per_app = 64;
  config.app.caps.max_concurrent_ops_fraction = 0.10;  // 10% of 60 containers = 6
  config.app.graceful_migration = graceful_migration;
  config.app.drain.drain_primaries = task_controller;  // "neither" also skips draining
  config.mini_sm.register_task_controller = task_controller;
  config.seed = 17;
  Testbed bed(config);
  bed.Start();
  SM_CHECK(bed.RunUntilAllReady(Minutes(10)));
  ShardedSimulator& sim = bed.sharded_sim();
  sim.RunFor(Seconds(10));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 200;
  traffic.write_fraction = 0.5;
  traffic.interval = Seconds(20);
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();
  sim.RunFor(Seconds(60));  // steady state before the upgrade

  TimeMicros upgrade_start = sim.Now();
  // CM-side parallelism: 6 concurrent restarts (the TaskController further gates them in (1)
  // and (2); in (3) the CM restarts 6 at a time unchecked).
  bed.StartRollingUpgradeEverywhere(/*max_concurrent_per_region=*/6,
                                    /*restart_downtime=*/Seconds(30));
  TimeMicros upgrade_end = upgrade_start;
  for (int i = 0; i < 2400; ++i) {
    sim.RunFor(Seconds(1));
    if (!bed.UpgradeInProgress()) {
      upgrade_end = sim.Now();
      break;
    }
  }
  sim.RunFor(Seconds(60));  // tail
  SM_CHECK(source.Drain(Minutes(1)));

  RunOutput output;
  output.series = source.recorder().series();
  output.totals = source.totals();
  output.upgrade_seconds = ToSeconds(upgrade_end - upgrade_start);
  // Reported migration counts come from the telemetry registry (the orchestrator accessors
  // remain and must agree; obs_test asserts the equivalence on a smaller run).
  obs::MetricsSnapshot snapshot = obs::DefaultMetrics().Snapshot();
  output.graceful = snapshot.CounterValue("sm.orchestrator.migrations_graceful");
  output.abrupt = snapshot.CounterValue("sm.orchestrator.migrations_abrupt");
  output.failed_ops = snapshot.CounterValue("sm.orchestrator.ops_failed");
  return output;
}

}  // namespace

int main() {
  PrintHeader("Fig 17: request success rate during a rolling software upgrade",
              "§8.2, Figure 17 — SM ~100%; no graceful migration ~98%; neither <90% (but "
              "upgrade finishes earlier)");
  int shards = std::max(100, static_cast<int>(2000 * BenchScale()));

  RunOutput sm = RunConfig(/*graceful=*/true, /*task_controller=*/true, shards);
  RunOutput no_graceful = RunConfig(/*graceful=*/false, /*task_controller=*/true, shards);
  RunOutput neither = RunConfig(/*graceful=*/false, /*task_controller=*/false, shards);

  std::cout << "Success rate over time (one row per 20s interval):\n";
  TablePrinter series({"t_s", "SM", "no_graceful_migration", "neither"});
  size_t rows = std::max({sm.series.size(), no_graceful.series.size(), neither.series.size()});
  for (size_t i = 0; i < rows; ++i) {
    auto cell = [&](const RunOutput& run) {
      if (i < run.series.size()) {
        return FormatDouble(run.series[i].success_rate() * 100.0, 2);
      }
      return std::string();
    };
    int64_t t = static_cast<int64_t>(i + 1) * 20;
    series.AddRowValues(t, cell(sm), cell(no_graceful), cell(neither));
  }
  series.Print(std::cout);

  std::cout << "\nSummary:\n";
  TablePrinter summary({"config", "requests", "overall_success_%", "p99.9_ms", "slo_attainment_%",
                        "failed_ops", "upgrade_duration_s", "graceful_migrations",
                        "abrupt_migrations"});
  auto add = [&summary](const std::string& name, const RunOutput& run) {
    summary.AddRowValues(name, run.totals.sent, FormatDouble(run.totals.success_rate() * 100.0, 3),
                         FormatDouble(run.totals.PercentileMs(0.999), 1),
                         FormatDouble(run.totals.slo_attainment() * 100.0, 3), run.failed_ops,
                         FormatDouble(run.upgrade_seconds, 0), run.graceful, run.abrupt);
  };
  add("SM (drain + graceful)", sm);
  add("no graceful migration", no_graceful);
  add("neither", neither);
  summary.Print(std::cout);
  return 0;
}
