// Full-stack integration tests: the paper's headline behaviours at small scale —
// upgrade availability (Fig 17 shape), geo failover with region preferences (Fig 19 shape),
// and load balancing keeping utilization bounded.

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/workload/load_gen.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

TEST(IntegrationTest, UpgradeWithSmKeepsAvailabilityNear100) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 10;
  config.app = MakeUniformAppSpec(AppId(1), "upapp", 100, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_concurrent_ops_fraction = 0.1;
  config.seed = 1;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 50;
  traffic.write_fraction = 0.5;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();
  bed.sim().RunFor(Seconds(30));  // steady state

  bed.StartRollingUpgradeEverywhere(/*max_concurrent_per_region=*/10, Seconds(20));
  bed.sim().RunFor(Minutes(30));
  EXPECT_FALSE(bed.UpgradeInProgress());
  source.Stop();
  // With drain + graceful migration, success stays essentially perfect.
  EXPECT_GT(source.totals().success_rate(), 0.999);
  EXPECT_GT(bed.orchestrator().graceful_migrations(), 50);
}

TEST(IntegrationTest, UpgradeWithoutSmDropsRequests) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 10;
  config.app = MakeUniformAppSpec(AppId(1), "upapp", 100, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.drain.drain_primaries = false;
  config.app.graceful_migration = false;
  config.mini_sm.register_task_controller = false;  // the "neither" ablation
  config.seed = 1;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 50;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();
  bed.sim().RunFor(Seconds(10));
  bed.StartRollingUpgradeEverywhere(/*max_concurrent_per_region=*/2, Seconds(20));
  bed.sim().RunFor(Minutes(10));
  source.Stop();
  EXPECT_FALSE(bed.UpgradeInProgress());
  // Shards were simply down during restarts: success visibly below the SM case.
  EXPECT_LT(source.totals().success_rate(), 0.995);
}

TEST(IntegrationTest, GeoFailoverRestoresLatencyAfterRecovery) {
  TestbedConfig config;
  config.regions = {"frc", "prn", "odn"};
  config.servers_per_region = 6;
  config.app =
      MakeUniformAppSpec(AppId(1), "geoapp", 60, ReplicationStrategy::kSecondaryOnly, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  // 24 "east-coast" shards prefer FRC (region 0).
  for (int s = 0; s < 24; ++s) {
    config.app.region_preferences.push_back({ShardId(s), RegionId(0), 1.0, 1});
  }
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(15);
  config.seed = 3;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(2));  // let periodic allocation satisfy preferences

  // Each EC shard has a replica at FRC.
  auto count_ec_in_frc = [&]() {
    int count = 0;
    for (int s = 0; s < 24; ++s) {
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
  EXPECT_GE(count_ec_in_frc(), 20);

  // FRC fails: requests still succeed from replicas elsewhere (2 replicas, spread).
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));
  bed.FailRegion(RegionId(0));
  bed.sim().RunFor(Seconds(30));
  int successes = 0;
  OnlineStats failover_latency;
  for (int i = 0; i < 40; ++i) {
    router->Route(static_cast<uint64_t>(i) * 7919ULL, RequestType::kRead,
                  [&](const RequestOutcome& outcome) {
                    if (outcome.success) {
                      ++successes;
                      failover_latency.Add(ToMillis(outcome.latency));
                    }
                  });
    bed.sim().RunFor(Millis(100));
  }
  bed.sim().RunFor(Seconds(5));
  EXPECT_GT(successes, 35) << "spread replicas should survive a whole-region outage";
  EXPECT_GT(failover_latency.mean(), 30.0) << "requests now cross regions";

  // FRC recovers: preferences pull EC shards back; latency returns to local.
  bed.RecoverRegion(RegionId(0));
  bed.sim().RunFor(Minutes(5));
  EXPECT_GE(count_ec_in_frc(), 20);
  OnlineStats recovered_latency;
  int recovered = 0;
  for (int i = 0; i < 40; ++i) {
    // EC keys: first 24 shards of 60 = keys in the low 40% of the key space.
    uint64_t key = static_cast<uint64_t>(i) * (~0ULL / 120);
    router->Route(key, RequestType::kRead, [&](const RequestOutcome& outcome) {
      if (outcome.success) {
        ++recovered;
        recovered_latency.Add(ToMillis(outcome.latency));
      }
    });
    bed.sim().RunFor(Millis(100));
  }
  bed.sim().RunFor(Seconds(5));
  EXPECT_GT(recovered, 35);
  EXPECT_LT(recovered_latency.mean(), failover_latency.mean())
      << "latency should drop once shards move back to the preferred region";
}

TEST(IntegrationTest, LoadBalancingKeepsUtilizationBounded) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 8;
  config.app = MakeUniformAppSpec(AppId(1), "lbapp", 80, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.placement.utilization_threshold = 0.9;
  Rng rng(17);
  config.shard_load_scalars = SampleShardLoadScalars(80, 20.0, rng);
  // Scale loads so the fleet is ~60% utilized: 8 servers x 100 capacity; 80 shards mean load
  // must be 6.0.
  for (double& load : config.shard_load_scalars) {
    load *= 6.0;
  }
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(20);
  config.mini_sm.orchestrator.load_poll_interval = Seconds(5);
  config.seed = 9;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  bed.sim().RunFor(Minutes(5));  // several LB rounds

  // Per-server utilization stays under the 90% threshold.
  for (ServerId id : bed.servers()) {
    ShardHostBase* app = bed.app_server(id);
    double load = 0.0;
    ShardLoadReport report;
    app->ReportLoads(report);
    for (const ShardLoadEntry& entry : report.entries) {
      load += entry.load[0];
    }
    EXPECT_LT(load, 95.0) << "server " << id.value << " left overloaded";
  }
}

TEST(IntegrationTest, ScanRequestsExerciseKeyLocality) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 4;
  config.app = MakeUniformAppSpec(AppId(1), "laser", 8, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));

  // Write a cluster of adjacent keys, then prefix-scan them (the §3.1 Laser workload).
  uint64_t base = 1000;
  int writes_ok = 0;
  for (uint64_t k = 0; k < 10; ++k) {
    router->Route(base + k, RequestType::kWrite, k, [&](const RequestOutcome& outcome) {
      if (outcome.success) {
        ++writes_ok;
      }
    });
    bed.sim().RunFor(Millis(50));
  }
  bed.sim().RunFor(Seconds(2));
  ASSERT_EQ(writes_ok, 10);
  ShardId shard = bed.spec().ShardForKey(base);
  ServerId owner = bed.orchestrator().replica_server(shard, 0);
  auto* kv = dynamic_cast<KvStoreApp*>(bed.app_server(owner));
  ASSERT_NE(kv, nullptr);
  EXPECT_EQ(kv->ShardSize(shard), 10u);
}

}  // namespace
}  // namespace shardman
