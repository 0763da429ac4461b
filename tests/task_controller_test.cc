// Tests for SM's TaskController (§4.1): cap enforcement, drain-before-approve, and global
// coordination across multiple regional cluster managers — including the paper's two-region
// example where independent restarts must not take down both replicas of one shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/common/rng.h"
#include "src/core/task_controller.h"
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

// Fig. 17's SM configuration at its full fleet size: one region, 60 servers, 3,000
// primary-only shards, primaries drained and moved gracefully before a restart, and at most
// 10% of the containers (6) under planned operations at once.
TestbedConfig DrainFirstUpgradeConfig(uint64_t seed) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 60;
  config.app =
      MakeUniformAppSpec(AppId(1), "upgrade", 3000, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_concurrent_ops_fraction = 0.10;
  config.app.graceful_migration = true;
  config.app.drain.drain_primaries = true;
  config.seed = seed;
  return config;
}

// Runs a rolling upgrade (6 restarts at a time per the cluster manager, 30 s downtime) until
// it finishes or an hour of simulated time passes, calling `each_step` every 100 ms.
template <typename StepFn>
void RunUpgrade(Testbed& bed, StepFn each_step) {
  bed.StartRollingUpgradeEverywhere(/*max_concurrent_per_region=*/6, Seconds(30));
  for (int step = 0; step < 36000 && bed.UpgradeInProgress(); ++step) {
    bed.sim().RunFor(Millis(100));
    each_step();
  }
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

// §4.1: a drain-first upgrade is a sequence of approved subsets, so no placement op can fail
// for want of a target: a drain starts only when it fits the global cap, leaving the other
// servers free to receive.
TEST(TaskControllerTest, FaultFreeDrainFirstUpgradeFailsNoOp) {
  for (uint64_t seed : {1, 2, 3, 4, 7, 11}) {
    Testbed bed(DrainFirstUpgradeConfig(seed));
    bed.Start();
    ASSERT_TRUE(bed.RunUntilAllReady(Minutes(10))) << "seed " << seed;
    bed.sim().RunFor(Seconds(10));
    RunUpgrade(bed, []() {});
    EXPECT_FALSE(bed.UpgradeInProgress()) << "seed " << seed;
    EXPECT_EQ(bed.orchestrator().failed_ops(), 0) << "seed " << seed;
    EXPECT_EQ(bed.orchestrator().abrupt_migrations(), 0) << "seed " << seed;
  }
}

// A started drain takes a container's load away as surely as its restart does, so draining
// and restarting containers together stay within the global cap.
TEST(TaskControllerTest, DrainsAndRestartsShareTheGlobalCap) {
  Testbed bed(DrainFirstUpgradeConfig(7));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(10)));
  bed.sim().RunFor(Seconds(10));
  const int cap = 6;  // 10% of 60 containers
  ClusterManager& cm = bed.cluster_manager(RegionId(0));
  int max_held = 0;
  int max_draining = 0;
  RunUpgrade(bed, [&]() {
    int held = 0;
    int draining = 0;
    for (ServerId server : bed.servers()) {
      const bool drain = bed.orchestrator().server_draining(server);
      draining += drain ? 1 : 0;
      held += drain || !cm.IsUp(bed.container_of(server)) ? 1 : 0;
    }
    max_held = std::max(max_held, held);
    max_draining = std::max(max_draining, draining);
  });
  EXPECT_FALSE(bed.UpgradeInProgress());
  EXPECT_LE(max_held, cap);
  EXPECT_GT(max_draining, 1);  // drains do overlap; the cap, not serialization, bounds them
}

// A drain's slot is released, and the drain cancelled, when its op leaves the cluster
// manager's pending list without being approved.
TEST(TaskControllerTest, DrainSlotReleasedWhenOpLeavesPendingList) {
  TestbedConfig config = TwoRegionConfig(ReplicationStrategy::kPrimaryOnly, 1, 20, 5);
  config.app.drain.drain_primaries = true;
  config.app.caps.max_concurrent_ops_fraction = 0.1;  // 1 of 10 containers
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  std::vector<ServerId> servers;
  for (ServerId server : bed.servers()) {
    if (bed.region_of(server) == RegionId(0) && !bed.orchestrator().ReplicasOn(server).empty()) {
      servers.push_back(server);
    }
  }
  ASSERT_GE(servers.size(), 2u);
  ClusterManager& cm = bed.cluster_manager(RegionId(0));
  SmTaskController& controller = *bed.replica_set()->task_controller();
  auto restart = [&](int64_t op_id, ServerId server) {
    ContainerOp op;
    op.op_id = op_id;
    op.container = bed.container_of(server);
    op.downtime = Seconds(10);
    return op;
  };
  const ContainerOp first = restart(9001, servers[0]);
  const ContainerOp second = restart(9002, servers[1]);

  // The first op's drain takes the only slot, so the second op waits.
  EXPECT_TRUE(controller.OnPendingOps(&cm, AppId(1), {first, second}).empty());
  EXPECT_TRUE(bed.orchestrator().server_draining(servers[0]));
  EXPECT_FALSE(bed.orchestrator().server_draining(servers[1]));

  // The first op is withdrawn: its drain is cancelled and the second op's drain starts.
  EXPECT_TRUE(controller.OnPendingOps(&cm, AppId(1), {second}).empty());
  EXPECT_FALSE(bed.orchestrator().server_draining(servers[0]));
  EXPECT_TRUE(bed.orchestrator().server_draining(servers[1]));
}

// Before the first load poll every load is 0 and every drain target ties on score. The tie
// breaks on replica count (bound or inbound), so one drain fills the emptiest servers level by
// level instead of piling its replicas onto the first server it finds. The allocator's
// zero-load placement is uneven to begin with, so the check is the water-filling bound: every
// server that received a replica ends at most one above the emptiest eligible server.
TEST(TaskControllerTest, ZeroLoadDrainSpreadsEvenly) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 12;
  config.app = MakeUniformAppSpec(AppId(1), "spread", 240, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 99;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  std::vector<ServerId> servers = bed.servers();
  std::sort(servers.begin(), servers.end());
  // The server with the most replicas, so the drain has enough to level several others.
  ServerId victim = servers.front();
  std::vector<size_t> before;
  for (ServerId server : servers) {
    before.push_back(bed.orchestrator().ReplicasOn(server).size());
    if (before.back() > bed.orchestrator().ReplicasOn(victim).size()) {
      victim = server;
    }
  }
  bool drained = false;
  bed.orchestrator().DrainServer(victim, true, true, [&]() { drained = true; });
  for (int i = 0; i < 600 && !drained; ++i) {
    bed.sim().RunFor(Millis(100));
  }
  ASSERT_TRUE(drained);
  size_t fewest = SIZE_MAX;
  size_t most_received = 0;
  int receivers = 0;
  for (size_t i = 0; i < servers.size(); ++i) {
    if (servers[i] == victim) {
      continue;
    }
    const size_t count = bed.orchestrator().ReplicasOn(servers[i]).size();
    fewest = std::min(fewest, count);
    if (count > before[i]) {
      ++receivers;
      most_received = std::max(most_received, count);
    }
  }
  EXPECT_GT(receivers, 1);
  EXPECT_LE(most_received, fewest + 1);
}

// The drain-target score reads a cached per-server load total. Whatever binds, unbinds and
// polls and split commits happen, the cached score equals a fresh re-sum in the same order,
// bit for bit.
double FreshLoadScore(Testbed& bed, ServerId server) {
  const Orchestrator& orchestrator = bed.orchestrator();
  double total = 0.0;
  for (const auto& [shard, role] : orchestrator.ReplicasOn(server)) {
    (void)role;
    for (int r = 0; r < orchestrator.ReplicaCount(shard); ++r) {
      if (orchestrator.replica_server(shard, r) == server) {
        total += orchestrator.replica_load(shard, r).Total();
        break;
      }
    }
  }
  return total / std::max(1e-9, bed.registry().Get(server)->capacity.Total());
}

TEST(TaskControllerTest, CachedLoadScoreMatchesFreshSum) {
  TestbedConfig config = TwoRegionConfig(ReplicationStrategy::kSecondaryOnly, 2, 24, 4);
  for (int s = 0; s < 24; ++s) {
    config.shard_load_scalars.push_back(0.1 + s / 7.0);
  }
  config.request_rate_cost = 0.37;  // every poll reports the traffic since the last one
  config.mini_sm.orchestrator.load_poll_interval = Seconds(3);
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  std::unique_ptr<ServiceRouter> router = bed.CreateRouter(RegionId(0));

  std::vector<ServerId> servers = bed.servers();
  std::sort(servers.begin(), servers.end());
  Rng rng(2024);
  int64_t nonzero_checks = 0;
  for (int step = 0; step < 120; ++step) {
    const ServerId server = servers[rng.UniformInt(0, static_cast<int>(servers.size()) - 1)];
    switch (rng.UniformInt(0, 4)) {
      case 0:  // moves replicas off `server` (binds elsewhere, unbinds here)
        bed.orchestrator().DrainServer(server, true, true, []() {});
        break;
      case 1:
        bed.orchestrator().CancelDrain(server);
        break;
      case 2: {  // traffic changes the next poll's loads
        const int requests = rng.UniformInt(1, 60);
        for (int i = 0; i < requests; ++i) {
          router->Route(rng.Next(), RequestType::kRead, [](const RequestOutcome&) {});
        }
        break;
      }
      case 3: {  // a committed split halves the parent's loads
        const ShardId shard(rng.UniformInt(0, bed.orchestrator().num_shards() - 1));
        const KeyRange range = bed.orchestrator().shard_range(shard);
        if (!range.empty()) {
          (void)bed.orchestrator().SplitShard(shard, range.begin + (range.end - range.begin) / 2);
        }
        break;
      }
      default:  // a crash re-places the server's replicas after the failover grace
        bed.cluster_manager(bed.region_of(server))
            .FailContainer(bed.container_of(server), Seconds(rng.UniformInt(5, 30)));
        break;
    }
    bed.sim().RunFor(Millis(rng.UniformInt(100, 8000)));
    for (ServerId id : servers) {
      const double fresh = FreshLoadScore(bed, id);
      ASSERT_EQ(bed.orchestrator().ServerLoadScore(id), fresh) << "step " << step;
      nonzero_checks += fresh > 0.0 ? 1 : 0;
    }
  }
  EXPECT_GT(nonzero_checks, 0);
  EXPECT_GT(bed.orchestrator().splits(), 0);
}

}  // namespace
}  // namespace shardman
