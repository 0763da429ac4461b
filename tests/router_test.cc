// Tests for the service-router client library: map subscription, locality-aware replica
// selection, retries and wrong-owner handling.

#include <gtest/gtest.h>

#include "src/obs/obs.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

TestbedConfig RouterConfigBed(ReplicationStrategy strategy, int replication, int regions) {
  TestbedConfig config;
  config.regions.clear();
  for (int r = 0; r < regions; ++r) {
    config.regions.push_back("r" + std::to_string(r));
  }
  config.servers_per_region = 4;
  config.app = MakeUniformAppSpec(AppId(1), "routed", 8, strategy, replication);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 5;
  return config;
}

RequestOutcome RouteSync(Testbed& bed, ServiceRouter& router, uint64_t key, RequestType type) {
  RequestOutcome out;
  bool done = false;
  router.Route(key, type, [&](const RequestOutcome& outcome) {
    out = outcome;
    done = true;
  });
  bed.sim().RunFor(Seconds(10));
  EXPECT_TRUE(done);
  return out;
}

TEST(ServiceRouterTest, RoutesWriteToPrimaryAndReadsSucceed) {
  Testbed bed(RouterConfigBed(ReplicationStrategy::kPrimaryOnly, 1, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));  // allow map delivery

  RequestOutcome write = RouteSync(bed, *router, 12345, RequestType::kWrite);
  EXPECT_TRUE(write.success);
  // The serving server is the shard's mapped primary.
  ShardId shard = bed.spec().ShardForKey(12345);
  EXPECT_EQ(write.served_by, bed.discovery().Current(AppId(1))->PrimaryOf(shard));

  RequestOutcome read = RouteSync(bed, *router, 12345, RequestType::kRead);
  EXPECT_TRUE(read.success);
}

TEST(ServiceRouterTest, ReadsPreferLocalRegionReplicas) {
  Testbed bed(RouterConfigBed(ReplicationStrategy::kSecondaryOnly, 2, 2));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  bed.sim().RunFor(Minutes(2));  // periodic allocation spreads replicas across regions
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  auto router = bed.CreateRouter(RegionId(1));
  bed.sim().RunFor(Seconds(2));
  // With replicas spread across both regions, a region-1 client's reads should be served from
  // region 1 (wide latency is 40x local).
  int local = 0;
  int total = 0;
  for (int i = 0; i < 30; ++i) {
    RequestOutcome outcome =
        RouteSync(bed, *router, static_cast<uint64_t>(i) * 987654321ULL, RequestType::kRead);
    if (!outcome.success) {
      continue;
    }
    ++total;
    if (bed.region_of(outcome.served_by) == RegionId(1)) {
      ++local;
    }
  }
  ASSERT_GT(total, 25);
  EXPECT_GT(local, total * 8 / 10);
}

TEST(ServiceRouterTest, RetriesFallBackToOtherReplica) {
  Testbed bed(RouterConfigBed(ReplicationStrategy::kSecondaryOnly, 2, 2));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  // Let periodic allocation spread each shard's replicas across the two regions (initial
  // placement is emergency-mode and ignores soft goals).
  bed.sim().RunFor(Minutes(2));
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));
  // Kill all region-0 servers: reads from region 0 must retry onto region-1 replicas.
  bed.FailRegion(RegionId(0));
  RequestOutcome outcome = RouteSync(bed, *router, 42, RequestType::kRead);
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(bed.region_of(outcome.served_by), RegionId(1));
  EXPECT_GT(outcome.attempts, 1);
}

TEST(ServiceRouterTest, NoMapMeansUnavailable) {
  Testbed bed(RouterConfigBed(ReplicationStrategy::kPrimaryOnly, 1, 1));
  bed.Start();
  // Don't wait for readiness/map delivery; route immediately.
  auto router = bed.CreateRouter(RegionId(0));
  RequestOutcome out;
  bool done = false;
  router.get()->Route(1, RequestType::kRead, [&](const RequestOutcome& outcome) {
    out = outcome;
    done = true;
  });
  bed.sim().RunFor(Seconds(3));
  ASSERT_TRUE(done);
  // Either it failed (no map yet) or the map arrived mid-retry and it succeeded; both are
  // legitimate, but a failure must carry a status.
  if (!out.success) {
    EXPECT_FALSE(out.status.ok());
  }
}

// A router created just now has no map yet. Requests routed before its first snapshot wait
// for it instead of failing, and each resolves its shard against that snapshot.
TEST(ServiceRouterTest, RequestsBeforeFirstMapWaitForIt) {
  Testbed bed(RouterConfigBed(ReplicationStrategy::kPrimaryOnly, 1, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  auto router = bed.CreateRouter(RegionId(0));
  ASSERT_EQ(router->map(), nullptr);
  int succeeded = 0;
  int finished = 0;
  for (int i = 0; i < 20; ++i) {
    const RequestType type = i % 2 == 0 ? RequestType::kWrite : RequestType::kRead;
    router->Route(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL, type,
                  [&](const RequestOutcome& outcome) {
                    ++finished;
                    succeeded += outcome.success ? 1 : 0;
                  });
  }
  EXPECT_EQ(finished, 0);  // nothing fails while the map is on its way
  bed.sim().RunFor(Seconds(5));
  ASSERT_NE(router->map(), nullptr);
  EXPECT_EQ(finished, 20);
  EXPECT_EQ(succeeded, 20);
}

TEST(ServiceRouterTest, StaleMapRecoversViaRetries) {
  Testbed bed(RouterConfigBed(ReplicationStrategy::kPrimaryOnly, 1, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));

  // Drain one server: its shards migrate gracefully. Requests issued throughout must succeed
  // even while the client's map is stale (old primaries forward).
  ServerId victim = bed.servers().front();
  bed.orchestrator().DrainServer(victim, true, true, []() {});
  int failures = 0;
  for (int i = 0; i < 100; ++i) {
    router->Route(static_cast<uint64_t>(i) * 123456789ULL, RequestType::kWrite, i,
                  [&](const RequestOutcome& outcome) {
                    if (!outcome.success) {
                      ++failures;
                    }
                  });
    bed.sim().RunFor(Millis(50));
  }
  bed.sim().RunFor(Seconds(10));
  EXPECT_EQ(failures, 0) << "graceful migration dropped client requests";
}

// A destroyed router leaves discovery: later publishes reach no freed router (the ASan lane
// turns a leftover subscription into a use-after-free report).
TEST(ServiceRouterTest, DestroyedRouterReceivesNoMaps) {
  Testbed bed(RouterConfigBed(ReplicationStrategy::kPrimaryOnly, 1, 1));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));
  ASSERT_NE(router->map(), nullptr);
  router.reset();

  const int64_t applied = obs::DefaultMetrics().Snapshot().CounterValue("sm.router.maps_applied");
  const int64_t publishes = bed.discovery().publishes();
  bed.orchestrator().DrainServer(bed.servers().front(), true, true, []() {});
  bed.sim().RunFor(Minutes(1));
  EXPECT_GT(bed.discovery().publishes(), publishes);
  EXPECT_EQ(obs::DefaultMetrics().Snapshot().CounterValue("sm.router.maps_applied"), applied);
}

}  // namespace
}  // namespace shardman
