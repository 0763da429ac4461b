// Multi-application integration: SM manages hundreds of applications on shared infrastructure
// (§8.1). Two applications share one region's cluster manager, coordination store and service
// discovery, each with its own mini-SM. Operations on one application (rolling upgrade,
// failures) must not disturb the other, and per-app routing stays isolated.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/kv_store_app.h"
#include "src/core/sm_library.h"
#include "src/routing/service_router.h"
#include "src/smr/replica_set.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

// Hand-assembled two-app deployment on shared substrates (the Testbed is single-app).
struct TwoAppFixture {
  TwoAppFixture() {
    SymmetricTopologySpec topo_spec;
    topo_spec.region_names = {"r0"};
    topo_spec.racks_per_data_center = 4;
    topo_spec.machines_per_rack = 3;
    topo_spec.base_capacity = ResourceVector{100.0};
    topology = BuildSymmetric(topo_spec);

    network = std::make_unique<Network>(&sim, LatencyModel(1, Millis(1), Millis(1)), 1);
    coord = std::make_unique<CoordStore>(&sim);
    discovery = std::make_unique<ServiceDiscovery>(&sim, Millis(200), Millis(800), 2);
    cm = std::make_unique<ClusterManager>(&sim, &topology, RegionId(0), 1, 3);

    specs[0] = MakeUniformAppSpec(AppId(1), "alpha", 12, ReplicationStrategy::kPrimaryOnly, 1);
    specs[1] = MakeUniformAppSpec(AppId(2), "beta", 8, ReplicationStrategy::kPrimaryOnly, 1);
    for (AppSpec& spec : specs) {
      spec.placement.metrics = MetricSet({"cpu"});
    }

    for (int a = 0; a < 2; ++a) {
      auto containers = cm->CreateJob(specs[a].id, 4);
      SM_CHECK(containers.ok());
      for (ContainerId container : containers.value()) {
        MakeServer(a, container);
      }
      // App-side lifecycle glue (state loss + coord reconnection), then the mini-SM.
      ContainerLifecycleListener glue;
      glue.on_down = [this](ContainerId container, bool) {
        auto it = slots.find(container.value);
        if (it != slots.end()) {
          it->second.app->OnCrash();
          it->second.library->Disconnect();
        }
      };
      glue.on_up = [this](ContainerId container) {
        auto it = slots.find(container.value);
        if (it != slots.end()) {
          it->second.library->Connect();
          it->second.library->RestoreAssignmentFromCoord();
        }
      };
      cm->AddLifecycleListener(specs[a].id, std::move(glue));

      mini_sms[a] = std::make_unique<ControlPlaneReplicaSet>(
          &sim, network.get(), coord.get(), discovery.get(), &registry,
          std::vector<ClusterManager*>{cm.get()}, specs[a], MiniSmConfig{}, SmrConfig{});
      mini_sms[a]->Start();
    }
  }

  struct Slot {
    std::unique_ptr<KvStoreApp> app;
    std::unique_ptr<SmLibrary> library;
  };

  void MakeServer(int app_index, ContainerId container) {
    const MachineInfo& machine = topology.machine(cm->MachineOf(container));
    ServerId id(container.value);
    Slot slot;
    slot.app = std::make_unique<KvStoreApp>(&sim, network.get(), &registry, id, machine.region,
                                            1);
    slot.library = std::make_unique<SmLibrary>(coord.get(), specs[app_index].name, id,
                                               slot.app.get());
    slot.library->Connect();
    ServerHandle handle;
    handle.id = id;
    handle.container = container;
    handle.app = specs[app_index].id;
    handle.machine = machine.id;
    handle.region = machine.region;
    handle.data_center = machine.data_center;
    handle.rack = machine.rack;
    handle.capacity = ResourceVector{100.0};
    handle.api = slot.app.get();
    registry.Register(handle);
    slots.emplace(container.value, std::move(slot));
  }

  bool RunUntilBothReady(TimeMicros timeout) {
    TimeMicros deadline = sim.Now() + timeout;
    while (sim.Now() < deadline) {
      if (mini_sms[0]->orchestrator().AllReady() && mini_sms[1]->orchestrator().AllReady()) {
        return true;
      }
      sim.RunFor(Millis(100));
    }
    return false;
  }

  Simulator sim;
  Topology topology;
  std::unique_ptr<Network> network;
  std::unique_ptr<CoordStore> coord;
  std::unique_ptr<ServiceDiscovery> discovery;
  std::unique_ptr<ClusterManager> cm;
  ServerRegistry registry;
  AppSpec specs[2];
  std::unique_ptr<ControlPlaneReplicaSet> mini_sms[2];
  std::unordered_map<int32_t, Slot> slots;
};

TEST(MultiAppTest, BothAppsPlaceIndependently) {
  TwoAppFixture fx;
  ASSERT_TRUE(fx.RunUntilBothReady(Minutes(3)));
  // Distinct shard maps, correct sizes, disjoint server sets.
  const ShardMap* map1 = fx.discovery->Current(AppId(1));
  const ShardMap* map2 = fx.discovery->Current(AppId(2));
  ASSERT_NE(map1, nullptr);
  ASSERT_NE(map2, nullptr);
  EXPECT_EQ(map1->entries.size(), 12u);
  EXPECT_EQ(map2->entries.size(), 8u);
  EXPECT_EQ(fx.registry.ServersOf(AppId(1)).size(), 4u);
  EXPECT_EQ(fx.registry.ServersOf(AppId(2)).size(), 4u);
  for (ServerId a : fx.registry.ServersOf(AppId(1))) {
    for (ServerId b : fx.registry.ServersOf(AppId(2))) {
      EXPECT_NE(a, b);
    }
  }
}

TEST(MultiAppTest, UpgradeOfOneAppDoesNotDisturbTheOther) {
  TwoAppFixture fx;
  ASSERT_TRUE(fx.RunUntilBothReady(Minutes(3)));
  fx.sim.RunFor(Seconds(10));

  int64_t beta_moves_before = fx.mini_sms[1]->orchestrator().completed_moves();

  // Probe app beta continuously while alpha goes through a rolling upgrade.
  ServiceRouter beta_router(&fx.sim, fx.network.get(), fx.discovery.get(), &fx.registry,
                            &fx.specs[1], RegionId(0), RouterConfig{}, 5);
  fx.sim.RunFor(Seconds(2));
  int beta_failures = 0;
  int beta_sent = 0;
  Rng rng(6);
  EventId probe = fx.sim.SchedulePeriodic(Millis(100), Millis(100), [&]() {
    ++beta_sent;
    beta_router.Route(rng.Next(), RequestType::kWrite, 1, [&](const RequestOutcome& outcome) {
      beta_failures += outcome.success ? 0 : 1;
    });
  });

  fx.cm->StartRollingUpgrade(AppId(1), /*max_concurrent=*/2, Seconds(15));
  fx.sim.RunFor(Minutes(10));
  EXPECT_FALSE(fx.cm->UpgradeInProgress(AppId(1)));
  fx.sim.Cancel(probe);
  fx.sim.RunFor(Seconds(5));

  EXPECT_GT(beta_sent, 100);
  EXPECT_EQ(beta_failures, 0) << "app beta saw failures during app alpha's upgrade";
  EXPECT_EQ(fx.mini_sms[1]->orchestrator().completed_moves(), beta_moves_before)
      << "app beta's shards moved because of app alpha's upgrade";
  EXPECT_GT(fx.mini_sms[0]->orchestrator().graceful_migrations(), 0);
  ASSERT_TRUE(fx.RunUntilBothReady(Minutes(3)));
}

TEST(MultiAppTest, FailureInOneAppLeavesTheOtherReady) {
  TwoAppFixture fx;
  ASSERT_TRUE(fx.RunUntilBothReady(Minutes(3)));
  fx.sim.RunFor(Seconds(5));

  ServerId victim = fx.registry.ServersOf(AppId(1)).front();
  auto victim_shards = fx.mini_sms[0]->orchestrator().ReplicasOn(victim);
  ASSERT_FALSE(victim_shards.empty());
  fx.cm->FailContainer(ContainerId(victim.value), /*downtime=*/-1);

  // Beta must stay fully ready throughout alpha's failover (its own periodic load balancing
  // may legitimately move beta shards; what must not happen is beta losing availability).
  for (int step = 0; step < 1200; ++step) {
    fx.sim.RunFor(Millis(100));
    ASSERT_TRUE(fx.mini_sms[1]->orchestrator().AllReady())
        << "app beta lost readiness during app alpha's failure (step " << step << ")";
  }
  // Alpha recovered by reassignment.
  EXPECT_TRUE(fx.RunUntilBothReady(Minutes(3)));
  for (const auto& [shard, role] : victim_shards) {
    EXPECT_NE(fx.mini_sms[0]->orchestrator().replica_server(shard, 0), victim);
  }
  EXPECT_EQ(fx.mini_sms[1]->orchestrator().failed_ops(), 0);
}

}  // namespace
}  // namespace shardman
