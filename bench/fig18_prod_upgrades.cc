// Figure 18 reproduction: no increase in client errors during daily production upgrades.
//
// The paper's production plot shows, over two days, the Messenger queue service's diurnal
// request rate, spikes of shard moves at each daily rolling upgrade (a small-scale canary wave
// followed three hours later by the full-scale wave), and a client error-rate curve that
// "hardly changes" despite the churn.
//
// This reproduction drives the application with diurnally modulated open-loop traffic (5 rps at
// the 20:00 peak, 35% of that at the trough, 70% writes) for two simulated days, runs the
// canary + full upgrade each day, and reports the three curves (request rate, shard moves,
// error rate) in 30-minute buckets.

#include <iostream>

#include "bench/bench_util.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

using namespace shardman;
using namespace shardman::bench;

int main() {
  PrintHeader("Fig 18: client errors during daily production upgrades",
              "§8.2, Figure 18 — diurnal load, daily canary + full upgrades; error rate hardly "
              "changes");

  double scale = BenchScale();
  const int shards = std::max(60, static_cast<int>(600 * scale));

  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 30;
  config.app = MakeUniformAppSpec(AppId(1), "fig18", shards, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_concurrent_ops_fraction = 0.1;
  config.seed = 18;
  Testbed bed(config);
  bed.Start();
  SM_CHECK(bed.RunUntilAllReady(Minutes(10)));

  const TimeMicros bucket_width = Minutes(30);
  RequestSourceConfig traffic;
  traffic.requests_per_second = 5;
  traffic.diurnal_trough = 0.35;
  traffic.write_fraction = 0.7;
  traffic.interval = bucket_width;
  RequestSource source(&bed, RegionId(0), traffic);
  bed.sim().RunFor(Seconds(5));
  const TimeMicros t0 = bed.sim().Now();
  source.Start();

  // Daily upgrades: canary at 09:00 (10% of containers via one CM wave), full at 12:00.
  for (int day = 0; day < 2; ++day) {
    TimeMicros canary_at = t0 + day * kMicrosPerDay + Hours(9);
    TimeMicros full_at = t0 + day * kMicrosPerDay + Hours(12);
    bed.sim().ScheduleAt(canary_at, [&]() {
      // Canary: restart just 3 containers (the small spike of shard moves in the figure).
      auto servers = bed.servers();
      for (int i = 0; i < 3 && i < static_cast<int>(servers.size()); ++i) {
        bed.cluster_manager(RegionId(0))
            .RequestRestart(ContainerId(servers[static_cast<size_t>(i)].value), Seconds(30));
      }
    });
    bed.sim().ScheduleAt(full_at, [&]() {
      if (!bed.UpgradeInProgress()) {
        bed.StartRollingUpgradeEverywhere(3, Seconds(30));
      }
    });
  }

  // Run two days, recording cumulative move counts at bucket edges.
  std::vector<int64_t> moves_at_end(static_cast<size_t>(2 * kMicrosPerDay / bucket_width));
  for (size_t bucket = 0; bucket < moves_at_end.size(); ++bucket) {
    bed.sim().RunUntil(t0 + static_cast<TimeMicros>(bucket + 1) * bucket_width);
    moves_at_end[bucket] = bed.orchestrator().completed_moves();
  }
  SM_CHECK(source.Drain(Minutes(1)));

  std::cout << "Two days in 30-minute buckets (paper: error rate flat through move spikes):\n";
  TablePrinter table({"hour", "requests", "shard_moves", "errors", "error_rate_%"});
  const std::vector<SloAccount>& series = source.recorder().series();
  int64_t last_moves = 0;
  for (size_t bucket = 0; bucket < moves_at_end.size() && bucket < series.size(); ++bucket) {
    const SloAccount& slice = series[bucket];
    table.AddRowValues(FormatDouble(static_cast<double>(bucket + 1) * 0.5, 1), slice.sent,
                       moves_at_end[bucket] - last_moves, slice.failed(),
                       FormatDouble(slice.failure_rate() * 100.0, 3));
    last_moves = moves_at_end[bucket];
  }
  table.Print(std::cout);

  const SloAccount& totals = source.totals();
  std::cout << "\nOverall error rate: " << FormatDouble(totals.failure_rate() * 100.0, 4)
            << "% across " << totals.sent << " requests and "
            << bed.orchestrator().completed_moves() << " shard moves (paper: no visible error "
            << "increase)\n";
  return 0;
}
