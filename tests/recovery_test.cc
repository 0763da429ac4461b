// Tests for control-plane fault tolerance (§6.2), coordination-store-based liveness detection
// (§3.2), and the composable generic TaskController (§7).

#include <gtest/gtest.h>

#include "src/core/generic_task_controller.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

TestbedConfig BaseConfig(int shards = 12, int regions = 1, int servers = 4) {
  TestbedConfig config;
  config.regions.clear();
  for (int r = 0; r < regions; ++r) {
    config.regions.push_back("r" + std::to_string(r));
  }
  config.servers_per_region = servers;
  config.app = MakeUniformAppSpec(AppId(1), "rec", shards, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 31;
  return config;
}

TEST(ControlPlaneRecoveryTest, FailoverPreservesAssignmentsAndVersions) {
  Testbed bed(BaseConfig());
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  bed.sim().RunFor(Seconds(10));  // quiesce past any drop-grace windows

  // Snapshot the assignment and map version under the first orchestrator.
  std::vector<ServerId> before;
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    before.push_back(bed.orchestrator().replica_server(ShardId(s), 0));
  }
  int64_t version_before = bed.orchestrator().published_versions();

  bed.replica_set()->KillLeader();
  bed.sim().RunFor(Seconds(5));

  // The replacement recovered the same assignment — zero shard moves from the failover.
  ASSERT_TRUE(bed.orchestrator().AllReady());
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    EXPECT_EQ(bed.orchestrator().replica_server(ShardId(s), 0), before[static_cast<size_t>(s)]);
  }
  EXPECT_EQ(bed.orchestrator().completed_moves(), 0);
  // Map versions continue monotonically.
  const ShardMap* map = bed.discovery().Current(AppId(1));
  ASSERT_NE(map, nullptr);
  EXPECT_GT(map->version, version_before);
}

TEST(ControlPlaneRecoveryTest, FailoverRePlacesShardsOfDeadServers) {
  Testbed bed(BaseConfig());
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  bed.sim().RunFor(Seconds(10));

  // A server dies while the control plane is "down": fail it, then immediately kill the leader
  // (before the old orchestrator's grace timer would have acted).
  ServerId victim = bed.servers().front();
  auto victim_shards = bed.orchestrator().ReplicasOn(victim);
  ASSERT_FALSE(victim_shards.empty());
  bed.cluster_manager(RegionId(0)).FailContainer(ContainerId(victim.value), /*downtime=*/-1);
  bed.replica_set()->KillLeader();

  // The recovered orchestrator re-places the dead server's shards.
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  for (const auto& [shard, role] : victim_shards) {
    ServerId now = bed.orchestrator().replica_server(shard, 0);
    EXPECT_NE(now, victim);
    EXPECT_TRUE(bed.registry().IsAlive(now));
  }
}

TEST(ControlPlaneRecoveryTest, DefaultBedRunsOneReplicaInRegionZero) {
  // No SmrConfig is set: the control plane is a one-replica set, sited in region 0 (the quorum
  // ranking's tie-break under the symmetric latency model) and elected once.
  Testbed bed(BaseConfig(12, /*regions=*/3, /*servers=*/4));
  bed.Start();
  ControlPlaneReplicaSet* set = bed.replica_set();
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->num_replicas(), 1);
  EXPECT_EQ(set->replica_region(0), RegionId(0));
  EXPECT_TRUE(set->has_leader());
  EXPECT_EQ(set->leadership_epoch(), 1);
  EXPECT_EQ(set->failovers(), 0);
}

TEST(ControlPlaneRecoveryTest, RunUntilAllReadyWaitsOutTheLeaderlessGap) {
  Testbed bed(BaseConfig());
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  // The lone replica loses its lease and may race again only after the rejoin delay, so 20 ms
  // later nobody leads while the deposed orchestrator still reads all-ready.
  bed.replica_set()->KillLeader();
  bed.sim().RunFor(Millis(20));
  ASSERT_FALSE(bed.replica_set()->has_leader());

  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(1)));
  EXPECT_TRUE(bed.replica_set()->has_leader());
  EXPECT_EQ(bed.replica_set()->leadership_epoch(), 2);
}

TEST(ControlPlaneRecoveryTest, RequestsFlowWhileControlPlaneIsDown) {
  // §6.2: "Even if all SM control-plane components are down, application clients can continue
  // to send requests to application servers."  Model: stop feeding the orchestrator (no
  // failures happen), clients keep routing against their last map.
  Testbed bed(BaseConfig());
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  bed.sim().RunFor(Seconds(10));
  bed.replica_set()->Stop();  // control plane gone; servers and maps remain

  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));
  int ok = 0;
  for (int i = 0; i < 30; ++i) {
    router->Route(static_cast<uint64_t>(i) * 997, RequestType::kWrite, i,
                  [&](const RequestOutcome& outcome) { ok += outcome.success ? 1 : 0; });
    bed.sim().RunFor(Millis(50));
  }
  bed.sim().RunFor(Seconds(2));
  EXPECT_EQ(ok, 30);
}

TEST(LivenessWatchTest, CoordEphemeralLossTriggersFailover) {
  // Disable the cluster-manager notification channel by expiring the server's coordination
  // session directly (modeling a CM notification loss): the orchestrator's ephemeral watch is
  // the backup detector.
  TestbedConfig config = BaseConfig();
  config.mini_sm.orchestrator.failover_grace = Seconds(5);
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  bed.sim().RunFor(Seconds(5));

  ServerId victim = bed.servers().front();
  auto victim_shards = bed.orchestrator().ReplicasOn(victim);
  ASSERT_FALSE(victim_shards.empty());

  // Kill the server's app silently: mark the registry handle dead is the orchestrator's job;
  // here only the coordination session expires (as if the process froze).
  ShardHostBase* app = bed.app_server(victim);
  app->OnCrash();
  // Expire the session via the library path used by the glue.
  bed.coord().ExpireSession(SessionId());  // no-op guard: invalid session
  // Find and expire the real liveness node by deleting it (equivalent to session expiry).
  std::string path = "/sm/" + bed.spec().name + "/live/" + std::to_string(victim.value);
  ASSERT_TRUE(bed.coord().Exists(path));
  ASSERT_TRUE(bed.coord().Delete(path).ok());

  // The watch fires, the grace elapses, shards are re-placed.
  bed.sim().RunFor(Seconds(30));
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  for (const auto& [shard, role] : victim_shards) {
    EXPECT_NE(bed.orchestrator().replica_server(shard, 0), victim);
  }
}

// ---- Generic TaskController (§7) ---------------------------------------------------------------

TEST(GenericTaskControllerTest, EnforcesCapsWithApplicationSuppliedMap) {
  // A "custom sharding" application: no SM orchestrator; the app supplies its own static shard
  // map (2 replicas per shard on fixed container pairs).
  Simulator sim;
  SymmetricTopologySpec topo_spec;
  topo_spec.region_names = {"r0"};
  topo_spec.racks_per_data_center = 2;
  topo_spec.machines_per_rack = 4;
  topo_spec.base_capacity = ResourceVector{100.0};
  Topology topo = BuildSymmetric(topo_spec);
  ClusterManager cm(&sim, &topo, RegionId(0), 1, 1);
  auto containers = cm.CreateJob(AppId(9), 6);
  ASSERT_TRUE(containers.ok());

  // Shard s lives on containers (s mod 6) and ((s+1) mod 6).
  auto shard_map = [&](ContainerId container) {
    std::vector<ShardId> out;
    int index = -1;
    for (size_t i = 0; i < containers->size(); ++i) {
      if ((*containers)[i] == container) {
        index = static_cast<int>(i);
      }
    }
    for (int s = 0; s < 12; ++s) {
      if (s % 6 == index || (s + 1) % 6 == index) {
        out.push_back(ShardId(s));
      }
    }
    return out;
  };
  auto unavailable = [&](ShardId shard) {
    int down = 0;
    for (size_t i = 0; i < containers->size(); ++i) {
      if (!cm.IsUp((*containers)[i]) &&
          (shard.value % 6 == static_cast<int>(i) ||
           (shard.value + 1) % 6 == static_cast<int>(i))) {
        ++down;
      }
    }
    return down;
  };

  GenericTaskControllerConfig config;
  config.max_concurrent_ops_fraction = 0.5;
  config.max_unavailable_per_shard = 1;
  GenericShardTaskController controller(AppId(9), config, shard_map, unavailable);
  controller.Attach(&cm);

  // Track that no shard ever loses both containers at once during a full rolling restart.
  bool violated = false;
  sim.SchedulePeriodic(Millis(100), Millis(100), [&]() {
    for (int s = 0; s < 12; ++s) {
      int down = 0;
      for (size_t i = 0; i < containers->size(); ++i) {
        if (!cm.IsUp((*containers)[i]) &&
            (s % 6 == static_cast<int>(i) || (s + 1) % 6 == static_cast<int>(i))) {
          ++down;
        }
      }
      if (down > 1) {
        violated = true;
      }
    }
  });
  cm.StartRollingUpgrade(AppId(9), /*max_concurrent=*/6, Seconds(10));
  sim.RunFor(Minutes(10));
  EXPECT_FALSE(cm.UpgradeInProgress(AppId(9)));
  EXPECT_FALSE(violated) << "the generic TaskController let both replicas of a shard go down";
  EXPECT_GT(controller.approvals(), 0);
  EXPECT_GT(controller.deferrals(), 0);  // adjacency forces serialization at some point
}

TEST(GenericTaskControllerTest, DrainHookGatesApproval) {
  Simulator sim;
  SymmetricTopologySpec topo_spec;
  topo_spec.region_names = {"r0"};
  topo_spec.machines_per_rack = 3;
  topo_spec.base_capacity = ResourceVector{100.0};
  Topology topo = BuildSymmetric(topo_spec);
  ClusterManager cm(&sim, &topo, RegionId(0), 1, 1);
  auto containers = cm.CreateJob(AppId(9), 2);
  ASSERT_TRUE(containers.ok());

  bool drained = false;
  auto shard_map = [&](ContainerId) {
    return drained ? std::vector<ShardId>{} : std::vector<ShardId>{ShardId(0)};
  };
  auto unavailable = [](ShardId) { return 0; };
  int drain_calls = 0;
  auto drain = [&](ContainerId, std::function<void()> done) {
    ++drain_calls;
    sim.Schedule(Seconds(5), [&drained, done]() {
      drained = true;
      done();
    });
  };
  GenericTaskControllerConfig config;
  GenericShardTaskController controller(AppId(9), config, shard_map, unavailable, drain);
  controller.Attach(&cm);

  bool restarted = false;
  ContainerLifecycleListener listener;
  listener.on_down = [&](ContainerId, bool planned) {
    if (planned) {
      EXPECT_TRUE(drained) << "restart approved before the drain hook completed";
      restarted = true;
    }
  };
  cm.AddLifecycleListener(AppId(9), listener);
  cm.StartRollingUpgrade(AppId(9), 1, Seconds(5));
  sim.RunFor(Minutes(5));
  EXPECT_TRUE(restarted);
  EXPECT_GT(drain_calls, 0);
}

}  // namespace
}  // namespace shardman
