// Replicated control-plane failover under fire (DESIGN.md §11): leader loss in the middle of
// migrations, an asymmetric partition isolating the leader, back-to-back leader kills under
// continuous client traffic, and a chaos sweep mixing leader-loss storms with online
// reconfiguration — all with the full invariant set (I1-I7) enabled and deterministic per seed.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/chaos/invariant_checker.h"
#include "src/smr/replica_set.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

TestbedConfig SmrBedConfig(uint64_t seed, int solver_threads = 1) {
  TestbedConfig config;
  config.regions = {"r0", "r1", "r2"};
  config.servers_per_region = 5;
  config.app = MakeUniformAppSpec(AppId(1), "smrapp", 24,
                                  ReplicationStrategy::kPrimarySecondary, 3);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_unavailable_per_shard = 1;
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(20);
  config.mini_sm.orchestrator.failover_grace = Seconds(8);
  config.mini_sm.allocator.solver_threads = solver_threads;
  config.smr.num_replicas = 3;
  config.seed = seed;
  return config;
}

// Drives the sim in small steps until the orchestrator has placement operations in flight.
bool RunUntilPendingOps(Testbed& bed, TimeMicros timeout) {
  const TimeMicros deadline = bed.sim().Now() + timeout;
  while (bed.sim().Now() < deadline && bed.orchestrator().pending_ops() == 0) {
    bed.sim().RunFor(Millis(50));
  }
  return bed.orchestrator().pending_ops() > 0;
}

// -- Leader loss mid-migration ----------------------------------------------------------------
// The tentpole scenario: the leader dies while migrations are in flight. The successor must
// reconcile from the op-log tail plus persisted assignments and finish the job — the old
// "quiesce before failover" precondition is gone.

TEST(SmrFailover, LeaderLossMidMigrationResumesWithoutQuiescence) {
  Testbed bed(SmrBedConfig(21));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  ASSERT_NE(bed.replica_set(), nullptr);
  bed.sim().RunFor(Minutes(1));

  InvariantChecker checker(&bed);
  checker.Start();

  // Permanently expire two servers' sessions; once the failover grace elapses the orchestrator
  // starts migrating their replicas, giving us a window with real in-flight operations.
  std::vector<ServerId> servers = bed.servers();
  checker.PushUnplannedFault();
  bed.ExpireServerSessions({servers[1], servers[6]}, /*reconnect_after=*/Minutes(30));
  ASSERT_TRUE(RunUntilPendingOps(bed, Minutes(1)));

  const int64_t epoch_before = bed.replica_set()->leadership_epoch();
  const size_t tail_before = bed.replica_set()->op_log().IncompleteTail().size();
  ASSERT_GT(bed.orchestrator().pending_ops(), 0);

  // Kill the leader mid-migration. No quiescence, no waiting.
  bed.replica_set()->KillLeader();
  bed.sim().RunFor(Seconds(30));
  checker.PopUnplannedFault();

  EXPECT_EQ(bed.replica_set()->failovers(), 1);
  EXPECT_GT(bed.replica_set()->leadership_epoch(), epoch_before);
  // The successor consumed exactly the logged in-flight tail.
  EXPECT_EQ(bed.orchestrator().reconciled_ops(), static_cast<int64_t>(tail_before));
  // The deposed instance is fenced: at most one unfenced writer exists.
  EXPECT_LE(bed.replica_set()->UnfencedWriters(), 1);

  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(10))) << checker.Report();
  checker.Stop();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

// -- Asymmetric partition isolating the leader ------------------------------------------------
// Every outbound link from the leader's region dies: its control RPCs vanish, its store
// session times out, and a successor in a healthy region must take over while the gray leader
// stays fenced.

TEST(SmrFailover, AsymmetricPartitionIsolatingLeader) {
  Testbed bed(SmrBedConfig(33));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  InvariantChecker checker(&bed);
  checker.Start();

  ControlPlaneReplicaSet* set = bed.replica_set();
  const int leader = set->leader_index();
  ASSERT_GE(leader, 0);
  const RegionId leader_region = set->replica_region(leader);
  const int64_t epoch_before = set->leadership_epoch();

  // One-way isolation: the leader can still be reached but reaches nobody.
  checker.PushUnplannedFault();
  for (int to = 0; to < bed.num_regions(); ++to) {
    if (to != leader_region.value) {
      bed.network().BlockLink(leader_region, RegionId(to));
    }
  }
  // The coordination store times out the unreachable session shortly after.
  bed.sim().Schedule(Seconds(1), [set, leader]() { set->lease(leader)->ExpireSession(); });
  bed.sim().RunFor(Seconds(30));

  EXPECT_GE(set->failovers(), 1);
  EXPECT_GT(set->leadership_epoch(), epoch_before);
  EXPECT_NE(set->leader_index(), leader);  // rejoin back-off kept the gray leader out
  EXPECT_LE(set->UnfencedWriters(), 1);

  for (int to = 0; to < bed.num_regions(); ++to) {
    if (to != leader_region.value) {
      bed.network().UnblockLink(leader_region, RegionId(to));
    }
  }
  bed.sim().RunFor(Minutes(1));
  checker.PopUnplannedFault();

  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(10))) << checker.Report();
  checker.Stop();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

// -- Back-to-back failovers under traffic -----------------------------------------------------
// N successive leader kills with continuous client traffic: every transition must raise the
// epoch, shard-map versions must stay monotonic, and the whole run must be byte-identical
// across solver thread counts (the portfolio reduction is deterministic).

struct FailoverRunFingerprint {
  int64_t failovers = 0;
  int64_t final_epoch = 0;
  int64_t map_versions = 0;
  int64_t probe_sent = 0;
  int64_t probe_succeeded = 0;
  int64_t violations = 0;

  bool operator==(const FailoverRunFingerprint& other) const {
    return failovers == other.failovers && final_epoch == other.final_epoch &&
           map_versions == other.map_versions && probe_sent == other.probe_sent &&
           probe_succeeded == other.probe_succeeded && violations == other.violations;
  }
};

FailoverRunFingerprint RunBackToBackKills(uint64_t seed, int solver_threads) {
  constexpr int kKills = 5;
  Testbed bed(SmrBedConfig(seed, solver_threads));
  bed.Start();
  EXPECT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 50;
  traffic.seed = seed + 1;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();

  InvariantChecker checker(&bed);
  checker.Start();

  int64_t last_epoch = bed.replica_set()->leadership_epoch();
  for (int i = 0; i < kKills; ++i) {
    bed.replica_set()->KillLeader();
    bed.sim().RunFor(Seconds(20));
    EXPECT_TRUE(bed.replica_set()->has_leader()) << "kill " << i;
    const int64_t epoch = bed.replica_set()->leadership_epoch();
    EXPECT_GT(epoch, last_epoch) << "kill " << i;  // strictly increasing terms
    last_epoch = epoch;
  }
  EXPECT_EQ(bed.replica_set()->failovers(), kKills);

  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(10))) << checker.Report();
  checker.Stop();
  source.Stop();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  // Traffic kept flowing: the data plane does not depend on control-plane liveness.
  EXPECT_GT(source.totals().success_rate(), 0.9);

  FailoverRunFingerprint fp;
  fp.failovers = bed.replica_set()->failovers();
  fp.final_epoch = bed.replica_set()->leadership_epoch();
  fp.map_versions = bed.orchestrator().published_versions();
  fp.probe_sent = source.totals().sent;
  fp.probe_succeeded = source.totals().ok;
  fp.violations = checker.total_violations();
  return fp;
}

TEST(SmrFailover, BackToBackKillsAreDeterministicAcrossSolverThreads) {
  FailoverRunFingerprint one = RunBackToBackKills(77, /*solver_threads=*/1);
  FailoverRunFingerprint eight = RunBackToBackKills(77, /*solver_threads=*/8);
  EXPECT_TRUE(one == eight)
      << "solver_threads changed the outcome: failovers " << one.failovers << "/"
      << eight.failovers << " epoch " << one.final_epoch << "/" << eight.final_epoch
      << " maps " << one.map_versions << "/" << eight.map_versions << " sent "
      << one.probe_sent << "/" << eight.probe_sent << " ok " << one.probe_succeeded << "/"
      << eight.probe_succeeded;
}

// -- Online reconfiguration -------------------------------------------------------------------

TEST(SmrReconfigure, AddRemoveRelocateWithoutStoppingPlacement) {
  Testbed bed(SmrBedConfig(55));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  InvariantChecker checker(&bed);
  checker.Start();
  ControlPlaneReplicaSet* set = bed.replica_set();
  ASSERT_EQ(set->num_replicas(), 3);

  // Grow to 4, then retire a follower: placement never stops.
  int added = set->AddReplica(RegionId(1));
  EXPECT_EQ(set->num_replicas(), 4);
  int follower = -1;
  for (int i = 0; i < 3; ++i) {
    if (i != set->leader_index()) {
      follower = i;
      break;
    }
  }
  ASSERT_GE(follower, 0);
  ASSERT_TRUE(set->RemoveReplica(follower).ok());
  EXPECT_EQ(set->num_replicas(), 3);
  EXPECT_FALSE(set->RemoveReplica(follower).ok());  // double-remove refused
  bed.sim().RunFor(Seconds(10));
  EXPECT_TRUE(set->has_leader());

  // Removing the leader forces an election among the survivors (including the new replica).
  const int64_t epoch_before = set->leadership_epoch();
  ASSERT_TRUE(set->RemoveReplica(set->leader_index()).ok());
  bed.sim().RunFor(Seconds(20));
  EXPECT_TRUE(set->has_leader());
  EXPECT_GT(set->leadership_epoch(), epoch_before);
  EXPECT_EQ(set->num_replicas(), 2);

  // Relocation takes effect at the replica's next term.
  ASSERT_TRUE(set->RelocateReplica(added, RegionId(2)).ok());
  EXPECT_EQ(set->replica_region(added).value, 2);

  // Refuses to drop below one replica.
  ASSERT_TRUE(set->RemoveReplica(set->leader_index()).ok());
  bed.sim().RunFor(Seconds(20));
  EXPECT_EQ(set->num_replicas(), 1);
  EXPECT_FALSE(set->RemoveReplica(set->leader_index()).ok());
  EXPECT_TRUE(set->has_leader());

  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(10))) << checker.Report();
  checker.Stop();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

// -- Chaos sweep: leader-loss storms and reconfiguration under storm --------------------------
// The soak matrix from the issue: explicit mixes layering control-plane faults over the
// classic data-plane ones, full invariant set, and a byte-identical journal per seed.

enum class SmrMixKind { kLeaderLossStorm, kReconfigureUnderStorm };

ChaosConfig SmrChaosConfig(SmrMixKind kind, uint64_t seed) {
  ChaosConfig chaos;
  chaos.mean_fault_interval = Seconds(12);
  chaos.min_duration = Seconds(5);
  chaos.max_duration = Seconds(20);
  chaos.storm_reconnect_after = Seconds(12);
  chaos.seed = seed;
  if (kind == SmrMixKind::kLeaderLossStorm) {
    chaos.mix = {{FaultKind::kLeaderLoss, 3.0},
                 {FaultKind::kLeaderPartition, 2.0},
                 {FaultKind::kSessionExpiryStorm, 1.0},
                 {FaultKind::kServerCrash, 1.0}};
  } else {
    chaos.mix = {{FaultKind::kSmrReconfigure, 3.0},
                 {FaultKind::kLeaderLoss, 1.0},
                 {FaultKind::kSessionExpiryStorm, 1.0},
                 {FaultKind::kWatchDelaySpike, 1.0}};
  }
  return chaos;
}

struct SmrSweepParam {
  uint64_t seed;
  SmrMixKind mix;
};

class SmrChaosSweep : public ::testing::TestWithParam<SmrSweepParam> {};

std::string RunSmrChaosOnce(const SmrSweepParam& param, int64_t* failovers_out) {
  Testbed bed(SmrBedConfig(param.seed));
  bed.Start();
  EXPECT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 20;
  traffic.seed = param.seed * 7 + 1;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();

  InvariantChecker checker(&bed);
  FaultInjector injector(&bed, SmrChaosConfig(param.mix, param.seed * 31 + 5), &checker);
  checker.set_context_fn([&injector]() { return injector.JournalDump(); });
  checker.Start();
  injector.Start();

  bed.sim().RunFor(Minutes(3));
  injector.Stop();
  bed.sim().RunFor(Minutes(2));

  EXPECT_TRUE(checker.AwaitReconvergence(Minutes(10)))
      << "seed " << param.seed << "\n"
      << checker.Report();
  checker.Stop();
  source.Stop();

  EXPECT_GT(injector.faults_injected(), 0);
  EXPECT_TRUE(checker.ok()) << "seed " << param.seed << "\n" << checker.Report();
  EXPECT_GT(source.totals().success_rate(), 0.5) << "seed " << param.seed;
  if (failovers_out != nullptr) {
    *failovers_out = bed.replica_set()->failovers();
  }
  return injector.JournalDump();
}

TEST_P(SmrChaosSweep, InvariantsHoldAndJournalReplays) {
  int64_t failovers_a = 0;
  std::string journal_a = RunSmrChaosOnce(GetParam(), &failovers_a);
  EXPECT_FALSE(journal_a.empty());

  // Replay: the same seed reproduces the identical schedule and the identical number of
  // leadership transitions.
  int64_t failovers_b = 0;
  std::string journal_b = RunSmrChaosOnce(GetParam(), &failovers_b);
  EXPECT_EQ(journal_a, journal_b);
  EXPECT_EQ(failovers_a, failovers_b);
}

INSTANTIATE_TEST_SUITE_P(
    MixesBySeed, SmrChaosSweep,
    ::testing::Values(SmrSweepParam{11u, SmrMixKind::kLeaderLossStorm},
                      SmrSweepParam{42u, SmrMixKind::kLeaderLossStorm},
                      SmrSweepParam{137u, SmrMixKind::kReconfigureUnderStorm},
                      SmrSweepParam{9001u, SmrMixKind::kReconfigureUnderStorm}));

}  // namespace
}  // namespace shardman
