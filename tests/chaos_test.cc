// Chaos engine tests: seeded fault-injection determinism, a chaos soak matrix with the full
// invariant set enabled, session-expiry storms, and router behaviour under one-way loss.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/chaos/invariant_checker.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

TestbedConfig ChaosBedConfig(TestAppKind kind, uint64_t seed) {
  TestbedConfig config;
  config.regions = {"r0", "r1", "r2"};
  config.servers_per_region = 5;
  config.app = MakeUniformAppSpec(AppId(1), "chaos", 24,
                                  ReplicationStrategy::kPrimarySecondary, 3);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_unavailable_per_shard = 1;
  config.app_kind = kind;
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(20);
  config.mini_sm.orchestrator.failover_grace = Seconds(8);
  config.seed = seed;
  return config;
}

ChaosConfig DefaultChaosConfig(uint64_t seed) {
  ChaosConfig chaos;
  chaos.mean_fault_interval = Seconds(10);
  chaos.min_duration = Seconds(5);
  chaos.max_duration = Seconds(20);
  chaos.storm_reconnect_after = Seconds(12);
  chaos.seed = seed;
  return chaos;
}

// -- Determinism ------------------------------------------------------------------------------
// The acceptance bar for replayability: the same seed must produce a bit-identical fault
// journal and the same final shard-map version across two independent runs.

struct ChaosRunFingerprint {
  std::string journal;
  int64_t map_version = 0;
  int64_t probe_succeeded = 0;
  int64_t faults = 0;
};

ChaosRunFingerprint RunChaosOnce(uint64_t seed) {
  Testbed bed(ChaosBedConfig(TestAppKind::kKvStore, seed));
  bed.Start();
  EXPECT_TRUE(bed.RunUntilAllReady(Minutes(5)));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 20;
  traffic.seed = seed + 1;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();

  FaultInjector injector(&bed, DefaultChaosConfig(seed));
  injector.Start();
  bed.sim().RunFor(Minutes(2));
  injector.Stop();
  bed.sim().RunFor(Minutes(2));  // all faults heal, the system settles
  source.Stop();

  ChaosRunFingerprint fp;
  fp.journal = injector.JournalDump();
  fp.map_version = bed.orchestrator().published_versions();
  fp.probe_succeeded = source.totals().ok;
  fp.faults = injector.faults_injected();
  return fp;
}

TEST(ChaosDeterminism, SameSeedSameJournalAndState) {
  ChaosRunFingerprint a = RunChaosOnce(1234);
  ChaosRunFingerprint b = RunChaosOnce(1234);
  EXPECT_GT(a.faults, 0);
  EXPECT_FALSE(a.journal.empty());
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.map_version, b.map_version);
  EXPECT_EQ(a.probe_succeeded, b.probe_succeeded);
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
  ChaosRunFingerprint a = RunChaosOnce(1);
  ChaosRunFingerprint b = RunChaosOnce(2);
  EXPECT_NE(a.journal, b.journal);
}

// -- Chaos soak matrix ------------------------------------------------------------------------
// Randomized composed faults against two application kinds with every invariant enabled.

class ChaosSweep : public ::testing::TestWithParam<std::pair<uint64_t, TestAppKind>> {};

TEST_P(ChaosSweep, InvariantsHoldUnderComposedFaults) {
  const auto [seed, kind] = GetParam();
  Testbed bed(ChaosBedConfig(kind, seed));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 20;
  traffic.seed = seed * 7 + 1;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();

  InvariantChecker checker(&bed);
  FaultInjector injector(&bed, DefaultChaosConfig(seed * 31 + 5), &checker);
  checker.set_context_fn([&injector]() { return injector.JournalDump(); });
  checker.Start();
  injector.Start();

  bed.sim().RunFor(Minutes(3));
  injector.Stop();
  bed.sim().RunFor(Minutes(2));  // active faults heal

  // I4: the system re-converges after the chaos stops.
  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(10)))
      << "seed " << seed << "\n"
      << checker.Report();
  checker.Stop();
  source.Stop();

  EXPECT_GT(injector.faults_injected(), 0);
  EXPECT_GT(checker.samples(), 100);
  EXPECT_TRUE(checker.ok()) << "seed " << seed << "\n" << checker.Report();
  // Composed unplanned faults legitimately fail requests; the run must not collapse though.
  EXPECT_GT(source.totals().sent, 1000);
  EXPECT_GT(source.totals().success_rate(), 0.5) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByApp, ChaosSweep,
    ::testing::Values(std::make_pair(11u, TestAppKind::kKvStore),
                      std::make_pair(42u, TestAppKind::kKvStore),
                      std::make_pair(137u, TestAppKind::kMaterializedKv),
                      std::make_pair(9001u, TestAppKind::kMaterializedKv)));

// -- Session-expiry storms --------------------------------------------------------------------
// Several live servers lose their coordination-store sessions inside one watch-delay window:
// the orchestrator must fail all of them over, the expired (but still running) servers must
// fence themselves, and no invariant may break.

TEST(SessionExpiryStorm, OrchestratorFailsOverAllExpiredServers) {
  Testbed bed(ChaosBedConfig(TestAppKind::kKvStore, 77));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  InvariantChecker checker(&bed);
  checker.Start();

  // Expire 3 of 15 sessions at once; the servers stay up (gray failure) and reconnect after
  // the failover grace has elapsed, by which point their shards moved elsewhere.
  std::vector<ServerId> servers = bed.servers();
  std::vector<ServerId> victims = {servers[0], servers[5], servers[10]};
  checker.PushUnplannedFault();  // the storm legitimately exceeds the planned cap
  bed.ExpireServerSessions(victims, /*reconnect_after=*/Seconds(12));
  bed.sim().RunFor(Seconds(30));
  checker.PopUnplannedFault();

  // Every victim's replicas were reassigned: the orchestrator no longer binds anything to a
  // server whose session expired and whose grace ran out before reconnect.
  bed.sim().RunFor(Minutes(2));
  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(10))) << checker.Report();
  checker.Stop();
  EXPECT_TRUE(checker.ok()) << checker.Report();

  // The reconnected servers are usable again: they re-registered liveness.
  for (ServerId victim : victims) {
    EXPECT_TRUE(bed.library_of(victim)->connected()) << "server " << victim.value;
  }
}

TEST(SessionExpiryStorm, ExpiredPrimariesAreFencedImmediately) {
  Testbed bed(ChaosBedConfig(TestAppKind::kKvStore, 99));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  // Find a server currently holding at least one primary.
  ServerId victim;
  for (ServerId id : bed.servers()) {
    for (const auto& [shard, role] : bed.orchestrator().ReplicasOn(id)) {
      if (role == ReplicaRole::kPrimary) {
        victim = id;
        break;
      }
    }
    if (victim.valid()) {
      break;
    }
  }
  ASSERT_TRUE(victim.valid());

  // Expiry fences synchronously: before any watch fires, the gray-failed server no longer
  // accepts direct writes for anything.
  bed.ExpireServerSession(victim, /*reconnect_after=*/0);
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    EXPECT_FALSE(bed.app_server(victim)->AcceptsDirectWrites(ShardId(s))) << "shard " << s;
  }
}

// -- Router under one-way loss ----------------------------------------------------------------
// An asymmetric partition (requests out of the client region silently vanish toward one
// region) degrades but does not wedge the data plane, and it recovers after heal.

TEST(AsymmetricPartition, RouterDegradesAndRecovers) {
  Testbed bed(ChaosBedConfig(TestAppKind::kKvStore, 55));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 50;
  traffic.seed = 3;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();
  bed.sim().RunFor(Seconds(30));
  int64_t failed_before = source.totals().failed();

  bed.network().BlockLink(RegionId(0), RegionId(1));
  bed.sim().RunFor(Seconds(30));
  // Requests owned by region-1 primaries time out; everything else keeps completing.
  EXPECT_GT(source.totals().failed(), failed_before);
  EXPECT_GT(source.totals().ok, 0);
  uint64_t dropped = bed.network().region_stats(RegionId(1)).dropped_in;
  EXPECT_GT(dropped, 0u);

  bed.network().UnblockLink(RegionId(0), RegionId(1));
  bed.sim().RunFor(Minutes(2));
  int64_t failed_at_heal = source.totals().failed();
  bed.sim().RunFor(Minutes(1));
  ASSERT_TRUE(source.Drain(Minutes(1)));
  // After heal the failure counter flattens out (in-flight timeouts may still land briefly).
  int64_t late_failures = source.totals().failed() - failed_at_heal;
  EXPECT_LT(late_failures, 30) << "router did not recover after one-way loss healed";
  EXPECT_GT(source.totals().success_rate(), 0.5);
  // Every request sent, the blackholed ones included, ended as a success or a failure.
  EXPECT_EQ(source.totals().sent, source.totals().ok + source.totals().failed());
}

}  // namespace
}  // namespace shardman
