// Tests for SM's TaskController (§4.1): cap enforcement, drain-before-approve, and global
// coordination across multiple regional cluster managers — including the paper's two-region
// example where independent restarts must not take down both replicas of one shard.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/workload/testbed.h"

namespace shardman {
namespace {

TestbedConfig TwoRegionConfig(ReplicationStrategy strategy, int replication, int shards,
                              int servers_per_region) {
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = servers_per_region;
  config.app = MakeUniformAppSpec(AppId(1), "tcapp", shards, strategy, replication);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 4242;
  return config;
}

TEST(TaskControllerTest, GlobalCapLimitsConcurrentRestarts) {
  TestbedConfig config = TwoRegionConfig(ReplicationStrategy::kPrimaryOnly, 1, 20, 5);
  config.app.drain.drain_primaries = false;  // isolate the cap logic from draining
  config.app.caps.max_concurrent_ops_fraction = 0.2;  // 2 of 10 containers
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  int down = 0;
  int max_down = 0;
  for (int r = 0; r < 2; ++r) {
    ContainerLifecycleListener listener;
    listener.on_down = [&](ContainerId, bool) { max_down = std::max(max_down, ++down); };
    listener.on_up = [&](ContainerId) { --down; };
    bed.cluster_manager(RegionId(r)).AddLifecycleListener(AppId(1), listener);
  }
  // Both CMs want to restart everything at high parallelism; the TaskController must keep
  // concurrent planned downtime within the 20% global cap.
  bed.StartRollingUpgradeEverywhere(/*max_concurrent_per_region=*/5, Seconds(10));
  bed.sim().RunFor(Minutes(20));
  EXPECT_FALSE(bed.UpgradeInProgress());
  EXPECT_LE(max_down, 2);
  EXPECT_GT(bed.replica_set()->task_controller()->approvals(), 0);
}

TEST(TaskControllerTest, PerShardCapPreventsCrossRegionDoubleRestart) {
  // Secondary-only app, 2 replicas per shard, spread across 2 regions. Per-shard cap = 1.
  // Both regional CMs simultaneously try to restart containers; no shard may ever have both
  // replicas down from planned ops at once (§4.1's motivating example).
  TestbedConfig config = TwoRegionConfig(ReplicationStrategy::kSecondaryOnly, 2, 16, 4);
  config.app.drain.drain_primaries = false;
  config.app.drain.drain_secondaries = false;
  config.app.caps.max_unavailable_per_shard = 1;
  config.app.caps.max_concurrent_ops_fraction = 0.5;  // generous global cap: per-shard binds
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  // Continuously verify: no shard ever has zero live replicas due to planned restarts.
  bool violated = false;
  bed.StartRollingUpgradeEverywhere(4, Seconds(15));
  for (int step = 0; step < 2400 && bed.UpgradeInProgress(); ++step) {
    bed.sim().RunFor(Millis(250));
    for (int s = 0; s < bed.spec().num_shards(); ++s) {
      if (bed.orchestrator().UnavailableReplicas(ShardId(s)) > 1) {
        violated = true;
      }
    }
  }
  EXPECT_FALSE(bed.UpgradeInProgress());
  EXPECT_FALSE(violated) << "both replicas of a shard were down simultaneously";
}

TEST(TaskControllerTest, DrainsPrimariesBeforeApprovingRestart) {
  TestbedConfig config = TwoRegionConfig(ReplicationStrategy::kPrimaryOnly, 1, 12, 3);
  config.app.drain.drain_primaries = true;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  // Whenever a container goes down (planned), it must host no shards: they were drained first.
  bool restart_with_shards = false;
  for (int r = 0; r < 2; ++r) {
    ContainerLifecycleListener listener;
    listener.on_down = [&, r](ContainerId container, bool planned) {
      if (!planned) {
        return;
      }
      ServerHandle* server = bed.registry().GetByContainer(container);
      if (server != nullptr && !bed.orchestrator().ReplicasOn(server->id).empty()) {
        restart_with_shards = true;
      }
    };
    bed.cluster_manager(RegionId(r)).AddLifecycleListener(AppId(1), listener);
  }
  bed.StartRollingUpgradeEverywhere(2, Seconds(10));
  bed.sim().RunFor(Minutes(30));
  EXPECT_FALSE(bed.UpgradeInProgress());
  EXPECT_FALSE(restart_with_shards)
      << "a container restarted while still hosting primary replicas";
  EXPECT_GT(bed.orchestrator().graceful_migrations(), 0);
}

TEST(TaskControllerTest, UnplannedFailuresConsumeGlobalBudget) {
  TestbedConfig config = TwoRegionConfig(ReplicationStrategy::kPrimaryOnly, 1, 10, 5);
  config.app.drain.drain_primaries = false;
  config.app.caps.max_concurrent_ops_fraction = 0.2;  // budget: 2 containers
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  // Take 2 containers down with unplanned failures: the entire planned budget is consumed,
  // so no restart may be approved while they are down.
  std::vector<ServerId> servers = bed.servers();
  std::sort(servers.begin(), servers.end());
  bed.cluster_manager(RegionId(0)).FailContainer(ContainerId(servers[0].value), Minutes(10));
  bed.cluster_manager(RegionId(0)).FailContainer(ContainerId(servers[1].value), Minutes(10));
  bed.sim().RunFor(Seconds(5));

  int planned_downs = 0;
  ContainerLifecycleListener listener;
  listener.on_down = [&](ContainerId, bool planned) {
    if (planned) {
      ++planned_downs;
    }
  };
  bed.cluster_manager(RegionId(1)).AddLifecycleListener(AppId(1), listener);
  bed.cluster_manager(RegionId(1)).StartRollingUpgrade(AppId(1), 5, Seconds(10));
  bed.sim().RunFor(Minutes(5));
  EXPECT_EQ(planned_downs, 0) << "restarts approved while unplanned failures ate the budget";
  // After the failed containers recover, the upgrade proceeds.
  bed.sim().RunFor(Minutes(30));
  EXPECT_GT(planned_downs, 0);
  EXPECT_FALSE(bed.cluster_manager(RegionId(1)).UpgradeInProgress(AppId(1)));
}

TEST(TaskControllerTest, MaintenanceNoticeDrainsAffectedServer) {
  TestbedConfig config = TwoRegionConfig(ReplicationStrategy::kPrimaryOnly, 1, 12, 3);
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  ServerId victim = bed.servers().front();
  MachineId machine = bed.registry().Get(victim)->machine;
  RegionId region = bed.region_of(victim);
  ASSERT_FALSE(bed.orchestrator().ReplicasOn(victim).empty());
  bed.cluster_manager(region).ScheduleMaintenance({machine}, /*start_in=*/Minutes(3),
                                                  /*duration=*/Minutes(5),
                                                  MaintenanceImpact::kRuntimeStateLoss,
                                                  /*advance_notice=*/Minutes(2));
  // By the time the maintenance starts, the server must have been drained.
  bed.sim().RunFor(Minutes(3) - Seconds(1));
  EXPECT_TRUE(bed.orchestrator().ReplicasOn(victim).empty())
      << "advance notice did not trigger a proactive drain (§4.2)";
  bed.sim().RunFor(Minutes(10));
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
}

}  // namespace
}  // namespace shardman
