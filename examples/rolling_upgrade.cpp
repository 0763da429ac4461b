// Rolling upgrade with zero dropped requests — the paper's headline capability (§4).
//
// A primary-only queue service runs on 12 servers. A rolling software upgrade restarts every
// container. Because the app's TaskController negotiates with the cluster manager (drain before
// restart, global + per-shard caps) and primary moves use the graceful 5-step migration, client
// traffic flowing throughout the upgrade loses nothing.
//
//   ./build/examples/rolling_upgrade

#include <cstdio>

#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

using namespace shardman;

int main() {
  AppSpec app = MakeUniformAppSpec(AppId(1), "upgrade-demo", /*num_shards=*/120,
                                   ReplicationStrategy::kPrimaryOnly, 1);
  app.placement.metrics = MetricSet({"cpu"});
  app.caps.max_concurrent_ops_fraction = 0.25;  // up to 3 of 12 containers at once
  app.drain.drain_primaries = true;             // drain before restart (Fig 8 majority policy)

  TestbedConfig config;
  config.regions = {"region0"};
  config.servers_per_region = 12;
  config.app = app;
  config.app_kind = TestAppKind::kQueue;
  Testbed bed(config);
  bed.Start();
  if (!bed.RunUntilAllReady(Minutes(2))) {
    std::printf("placement did not finish\n");
    return 1;
  }

  // Continuous enqueue traffic throughout: 100 rps open-loop Poisson arrivals.
  RequestSourceConfig traffic;
  traffic.requests_per_second = 100;
  traffic.write_fraction = 1.0;  // enqueues
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();
  bed.sim().RunFor(Seconds(10));

  std::printf("starting rolling upgrade of 12 containers (30s restart each, <=3 concurrent)\n");
  bed.StartRollingUpgradeEverywhere(/*max_concurrent_per_region=*/3,
                                    /*restart_downtime=*/Seconds(30));
  int seconds = 0;
  while (bed.UpgradeInProgress() && seconds < 1800) {
    bed.sim().RunFor(Seconds(10));
    seconds += 10;
    if (seconds % 60 == 0) {
      std::printf("  t=%3ds: upgrade remaining=%d, graceful migrations so far=%lld\n", seconds,
                  bed.cluster_manager(RegionId(0)).UpgradeRemaining(AppId(1)),
                  static_cast<long long>(bed.orchestrator().graceful_migrations()));
    }
  }
  bed.sim().RunFor(Seconds(20));
  const bool drained = source.Drain(Minutes(1));
  const SloAccount& totals = source.totals();

  std::printf("\nupgrade finished in ~%ds\n", seconds);
  std::printf("requests sent:      %llu\n", static_cast<unsigned long long>(totals.sent));
  std::printf("requests failed:    %llu\n", static_cast<unsigned long long>(totals.failed()));
  std::printf("success rate:       %.4f%%\n", totals.success_rate() * 100.0);
  std::printf("graceful migrations: %lld (every primary moved off each container before its "
              "restart)\n",
              static_cast<long long>(bed.orchestrator().graceful_migrations()));
  std::printf("planned restarts:   %lld\n",
              static_cast<long long>(bed.cluster_manager(RegionId(0)).planned_restarts()));
  if (!drained) {
    std::printf("some requests never finished\n");
  }
  return drained && totals.failed() == 0 ? 0 : 1;
}
