// Figure 19 reproduction: SM migrates a geo-distributed application's shards across regions to
// handle a whole-region failure.
//
// Paper setup (§8.3): a secondary-only application with 1,000 shards and two replicas per
// shard across three regions — FRC (US east), PRN (US west), ODN (Denmark) — with 30 servers
// per region. 400 "east-coast" (EC) shards carry a region preference for FRC: steady state has
// one replica at FRC and one at PRN or ODN. An FRC client reads EC shards:
//   t=0..90s    low local latency;
//   t=90s       FRC fails — requests fail over to PRN/ODN replicas (latency spike, then a
//               cross-region plateau); SM re-creates the lost replicas in other regions;
//   t=450s      FRC recovers — SM migrates one replica of each EC shard back, restoring low
//               latency.
//
// Output: the client-observed latency time series (the Fig. 19 curve, from a 10 rps open-loop
// Poisson source reading EC keys) plus replica-location counts at key instants, and the run's
// success rate, success-only p99.9 and SLO attainment. The testbed has one wide-area latency,
// 35 ms one way, between every region pair; the paper's FRC<->ODN link is longer.

#include <iostream>

#include "bench/bench_util.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

using namespace shardman;
using namespace shardman::bench;

int main() {
  PrintHeader("Fig 19: geo-distributed failover and recovery",
              "§8.3, Figure 19 — latency of an FRC client reading EC shards across an FRC "
              "region failure (t=90s) and recovery (t=450s)");

  double scale = BenchScale();
  const int shards = std::max(50, static_cast<int>(1000 * scale));
  const int ec_shards = shards * 2 / 5;  // 400 of 1000

  TestbedConfig config;
  config.sim_shards = SimShardsFromEnv();  // DESIGN.md §13; default stays single-shard
  config.sim_threads = SimThreadsFromEnv();
  config.regions = {"FRC", "PRN", "ODN"};
  config.servers_per_region = 30;
  config.app =
      MakeUniformAppSpec(AppId(1), "fig19", shards, ReplicationStrategy::kSecondaryOnly, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  for (int s = 0; s < ec_shards; ++s) {
    config.app.region_preferences.push_back({ShardId(s), RegionId(0), 1.0, 1});
  }
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(15);
  config.mini_sm.orchestrator.failover_grace = Seconds(5);
  config.local_latency = Millis(1);
  config.wide_latency = Millis(35);
  config.seed = 19;
  Testbed bed(config);
  ShardedSimulator& sim = bed.sharded_sim();
  bed.Start();
  SM_CHECK(bed.RunUntilAllReady(Minutes(10)));
  sim.RunFor(Minutes(2));  // let periodic allocation satisfy preferences + spread
  SM_CHECK(bed.RunUntilAllReady(Minutes(5)));

  auto ec_replicas_in_frc = [&]() {
    int count = 0;
    for (int s = 0; s < ec_shards; ++s) {
      for (int r = 0; r < bed.orchestrator().ReplicaCount(ShardId(s)); ++r) {
        ServerId server = bed.orchestrator().replica_server(ShardId(s), r);
        if (server.valid() && bed.region_of(server) == RegionId(0) &&
            bed.registry().IsAlive(server)) {
          ++count;
        }
      }
    }
    return count;
  };
  std::cout << "EC replicas in FRC at steady state: " << ec_replicas_in_frc() << " / "
            << ec_shards << "\n\n";

  // FRC client reading EC keys only (low 40% of the key space).
  RequestSourceConfig traffic;
  traffic.requests_per_second = 10;
  traffic.key_span = (~0ULL / static_cast<uint64_t>(shards)) * static_cast<uint64_t>(ec_shards);
  traffic.write_fraction = 0.0;
  traffic.interval = Seconds(10);
  traffic.seed = 99;
  RequestSource source(&bed, RegionId(0), traffic);
  sim.RunFor(Seconds(2));
  const TimeMicros t0 = sim.Now();
  source.Start();

  sim.RunUntil(t0 + Seconds(90));
  std::cout << "t=90s: FRC fails\n";
  bed.FailRegion(RegionId(0));

  sim.RunUntil(t0 + Seconds(450));
  std::cout << "t=450s: FRC recovers; EC replicas in FRC just before recovery: "
            << ec_replicas_in_frc() << "\n";
  bed.RecoverRegion(RegionId(0));

  sim.RunUntil(t0 + Seconds(600));
  SM_CHECK(source.Drain(Minutes(1)));
  std::cout << "t=600s: EC replicas back in FRC: " << ec_replicas_in_frc() << " / " << ec_shards
            << "\n\n";

  std::cout << "Client latency over time (paper: low -> spike at failure -> cross-region "
               "plateau -> low again after shards move back):\n";
  TablePrinter table({"t_s", "mean_latency_ms", "p99_latency_ms", "requests", "failed"});
  const std::vector<SloAccount>& series = source.recorder().series();
  for (size_t i = 0; i < series.size() && i < 60; ++i) {  // 600s in 10s intervals
    const SloAccount& slice = series[i];
    table.AddRowValues((i + 1) * 10, FormatDouble(slice.mean_ms(), 2),
                       FormatDouble(slice.PercentileMs(0.99), 1), slice.sent, slice.failed());
  }
  table.Print(std::cout);
  const SloAccount& totals = source.totals();
  std::cout << "\nWhole run: " << totals.sent << " requests, success "
            << FormatDouble(totals.success_rate() * 100.0, 3) << "%, p99.9 "
            << FormatDouble(totals.PercentileMs(0.999), 1) << " ms, SLO attainment ("
            << FormatDouble(traffic.slo_ms, 0) << " ms) "
            << FormatDouble(totals.slo_attainment() * 100.0, 3) << "%\n";
  return 0;
}
