// Parameterized availability sweeps: the Fig. 17 experiment generalized across replication
// strategies, drain policies and protection levels. For every configuration the same rolling
// upgrade runs under probe traffic; the asserted properties are the paper's qualitative claims:
//
//   P1  full SM protection (drain + graceful migration) drops nothing;
//   P2  removing protections never *improves* availability;
//   P3  replicated apps tolerate undrained restarts better than primary-only apps, because the
//       TaskController's per-shard cap keeps a serving replica alive.

#include <gtest/gtest.h>

#include <tuple>

#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

struct SweepResult {
  double success = 0.0;
  int64_t graceful = 0;
  int64_t abrupt = 0;
};

SweepResult RunUpgrade(ReplicationStrategy strategy, int replication, bool drain, bool graceful,
                       bool task_controller, uint64_t seed) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 8;
  config.app = MakeUniformAppSpec(AppId(1), "sweep", 64, strategy, replication);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_concurrent_ops_fraction = 0.25;
  config.app.drain.drain_primaries = drain;
  // "Full protection" drains secondaries too: an undrained secondary's downtime is a policy
  // choice (Fig 8's 78%), not something graceful migration can mask for direct hits.
  config.app.drain.drain_secondaries = drain;
  config.app.graceful_migration = graceful;
  config.mini_sm.register_task_controller = task_controller;
  config.seed = seed;
  Testbed bed(config);
  bed.Start();
  SM_CHECK(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Seconds(10));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 60;
  traffic.write_fraction = 0.5;
  traffic.seed = seed + 1;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();
  bed.sim().RunFor(Seconds(20));
  bed.StartRollingUpgradeEverywhere(/*max_concurrent_per_region=*/2, Seconds(20));
  bed.sim().RunFor(Minutes(20));
  SM_CHECK(!bed.UpgradeInProgress());
  bed.sim().RunFor(Seconds(30));
  source.Stop();

  SweepResult result;
  result.success = source.totals().success_rate();
  result.graceful = bed.orchestrator().graceful_migrations();
  result.abrupt = bed.orchestrator().abrupt_migrations();
  return result;
}

class StrategySweep : public ::testing::TestWithParam<std::tuple<ReplicationStrategy, int>> {};

TEST_P(StrategySweep, FullProtectionDropsNothing) {
  auto [strategy, replication] = GetParam();
  SweepResult result = RunUpgrade(strategy, replication, /*drain=*/true, /*graceful=*/true,
                                  /*task_controller=*/true, /*seed=*/5);
  EXPECT_DOUBLE_EQ(result.success, 1.0);
  if (strategy != ReplicationStrategy::kSecondaryOnly) {
    EXPECT_GT(result.graceful, 0);
  }
  EXPECT_EQ(result.abrupt, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StrategySweep,
    ::testing::Values(std::make_tuple(ReplicationStrategy::kPrimaryOnly, 1),
                      std::make_tuple(ReplicationStrategy::kPrimarySecondary, 2),
                      std::make_tuple(ReplicationStrategy::kSecondaryOnly, 2)));

TEST(AvailabilityOrderingTest, ProtectionLevelsOrderAsThePaperClaims) {
  // Primary-only app: full SM >= no-graceful >= neither (Fig. 17's ordering).
  SweepResult full = RunUpgrade(ReplicationStrategy::kPrimaryOnly, 1, true, true, true, 7);
  SweepResult no_graceful =
      RunUpgrade(ReplicationStrategy::kPrimaryOnly, 1, true, false, true, 7);
  SweepResult neither =
      RunUpgrade(ReplicationStrategy::kPrimaryOnly, 1, false, false, false, 7);
  EXPECT_DOUBLE_EQ(full.success, 1.0);
  EXPECT_GE(full.success, no_graceful.success);
  EXPECT_GE(no_graceful.success, neither.success);
  EXPECT_LT(neither.success, 1.0) << "unprotected restarts must visibly drop requests";
}

TEST(AvailabilityOrderingTest, ReplicationMasksUndrainedRestarts) {
  // Secondary-only with 2 replicas and per-shard cap 1: even with no drain at all, the
  // TaskController never lets both replicas restart at once, so reads keep a live replica.
  SweepResult replicated =
      RunUpgrade(ReplicationStrategy::kSecondaryOnly, 2, false, false, true, 9);
  SweepResult single = RunUpgrade(ReplicationStrategy::kPrimaryOnly, 1, false, false, true, 9);
  EXPECT_GT(replicated.success, 0.999);
  EXPECT_GE(replicated.success, single.success);
}

}  // namespace
}  // namespace shardman
