// Data-plane hot-path tests (DESIGN.md §9): zero-copy shard-map dissemination, the router's
// per-version routing cache (including invalidation on failover publishes), the allocation-free
// PickTarget fast path, retry accounting, and the end-to-end determinism contract — the same
// seeded scenario must produce byte-identical metrics and traces across repeated runs and
// across solver thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/workload/testbed.h"

// Binary-wide allocation counter: every operator new in this test process bumps it, so a
// fast-path loop can assert "zero heap allocations" directly. Replacing operator new is
// incompatible with ASan's allocator interception (alloc-dealloc-mismatch aborts), so the
// overrides are compiled out under sanitizers — the counter then stays 0 and the zero-alloc
// assertions are vacuous there; the plain Release/Debug lanes enforce them.
#if defined(__SANITIZE_ADDRESS__)
#define SM_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SM_COUNT_ALLOCS 0
#else
#define SM_COUNT_ALLOCS 1
#endif
#else
#define SM_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<int64_t> g_heap_allocs{0};
}  // namespace

#if SM_COUNT_ALLOCS
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // SM_COUNT_ALLOCS

namespace shardman {
namespace {

#if SHARDMAN_OBS_ENABLED
#define SM_REQUIRE_OBS() ((void)0)
#else
#define SM_REQUIRE_OBS() GTEST_SKIP() << "instrumentation compiled out (SHARDMAN_OBS=OFF)"
#endif

ShardMap MakeMap(AppId app, int64_t version, int shards) {
  ShardMap map;
  map.app = app;
  map.version = version;
  map.entries.resize(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    map.entries[static_cast<size_t>(s)].shard = ShardId(s);
    ShardMapReplica replica;
    replica.server = ServerId(100 + s);
    replica.role = ReplicaRole::kPrimary;
    replica.region = RegionId(0);
    map.entries[static_cast<size_t>(s)].replicas.push_back(replica);
  }
  return map;
}

// -- Zero-copy dissemination -------------------------------------------------------------------

TEST(ZeroCopyDissemination, AllSubscribersShareOnePublishedMap) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(10), Millis(50), 3);
  constexpr int kSubscribers = 16;
  std::vector<const ShardMap*> seen(kSubscribers, nullptr);
  for (int i = 0; i < kSubscribers; ++i) {
    discovery.Subscribe(AppId(1), [&seen, i](const std::shared_ptr<const ShardMap>& map) {
      seen[static_cast<size_t>(i)] = map.get();
    });
  }
  discovery.Publish(MakeMap(AppId(1), 1, 64));
  sim.RunFor(Millis(100));
  const ShardMap* authoritative = discovery.Current(AppId(1));
  ASSERT_NE(authoritative, nullptr);
  for (int i = 0; i < kSubscribers; ++i) {
    // Pointer identity: every subscriber was handed the same immutable object, not a copy.
    EXPECT_EQ(seen[static_cast<size_t>(i)], authoritative) << "subscriber " << i;
  }
}

TEST(ZeroCopyDissemination, SharedPtrPublishDoesNotCopyTheMap) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(10), Millis(10), 3);
  auto map = std::make_shared<const ShardMap>(MakeMap(AppId(1), 1, 8));
  const ShardMap* raw = map.get();
  std::shared_ptr<const ShardMap> delivered;
  discovery.Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>& m) { delivered = m; });
  discovery.Publish(map);
  sim.RunFor(Millis(50));
  EXPECT_EQ(discovery.Current(AppId(1)), raw);
  EXPECT_EQ(discovery.CurrentShared(AppId(1)).get(), raw);
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered.get(), raw);
}

TEST(ZeroCopyDissemination, DeliveryDelayIndependentOfOtherSubscribers) {
  // The delay a subscriber experiences for a version is a pure function of
  // (seed, subscription, version): adding subscribers must not perturb existing ones.
  auto run = [](int extra_subscribers) {
    Simulator sim;
    ServiceDiscovery discovery(&sim, Millis(10), Millis(500), 11);
    TimeMicros delivered_at = -1;
    discovery.Subscribe(AppId(1), [&](const std::shared_ptr<const ShardMap>&) {
      delivered_at = sim.Now();
    });
    for (int i = 0; i < extra_subscribers; ++i) {
      discovery.Subscribe(AppId(1), [](const std::shared_ptr<const ShardMap>&) {});
    }
    discovery.Publish(MakeMap(AppId(1), 1, 4));
    sim.RunFor(Seconds(1));
    return delivered_at;
  };
  TimeMicros alone = run(0);
  EXPECT_GT(alone, 0);
  EXPECT_EQ(run(5), alone);
  EXPECT_EQ(run(50), alone);
}

// -- Router cache ------------------------------------------------------------------------------

TestbedConfig DataplaneBed(uint64_t seed) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "dataplane", 16,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = seed;
  return config;
}

TEST(RouterCache, RebuildsOnlyOnNewMapVersions) {
  Testbed bed(DataplaneBed(21));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));  // map delivery
  int64_t rebuilds = router->cache_rebuilds();
  ASSERT_GT(rebuilds, 0);
  // Routing traffic alone never rebuilds the cache.
  for (int i = 0; i < 200; ++i) {
    router->Route(static_cast<uint64_t>(i) * 977, RequestType::kRead,
                  [](const RequestOutcome&) {});
  }
  bed.sim().RunFor(Seconds(5));
  EXPECT_EQ(router->cache_rebuilds(), rebuilds);
}

TEST(RouterCache, InvalidatedByFailoverPublish) {
  Testbed bed(DataplaneBed(22));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));

  // Find a shard's primary, then drain that server: the orchestrator migrates its shards and
  // publishes new map versions. The router must apply them (patching its cache from the
  // deltas) and route writes to the new primary.
  ShardId shard = bed.spec().ShardForKey(424242);
  ServerId old_primary = bed.discovery().Current(AppId(1))->PrimaryOf(shard);
  ASSERT_TRUE(old_primary.valid());
  int64_t rebuilds_before = router->cache_rebuilds();
  int64_t patches_before = router->cache_patches();

  bool drained = false;
  bed.orchestrator().DrainServer(old_primary, true, true, [&]() { drained = true; });
  bed.sim().RunFor(Minutes(2));
  ASSERT_TRUE(drained);
  bed.sim().RunFor(Seconds(2));  // final map version propagates to the router

  EXPECT_EQ(router->cache_rebuilds(), rebuilds_before);
  EXPECT_GT(router->cache_patches(), patches_before);
  ServerId new_primary = bed.discovery().Current(AppId(1))->PrimaryOf(shard);
  ASSERT_TRUE(new_primary.valid());
  EXPECT_NE(new_primary, old_primary);

  RequestOutcome out;
  bool done = false;
  router->Route(424242, RequestType::kWrite, [&](const RequestOutcome& outcome) {
    out = outcome;
    done = true;
  });
  bed.sim().RunFor(Seconds(10));
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.served_by, new_primary);
}

// -- Allocation-free fast path ------------------------------------------------------------------

TEST(RouterFastPath, PickTargetAllocatesNothing) {
  Testbed bed(DataplaneBed(23));
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));
  ASSERT_NE(router->map(), nullptr);

  // Pre-build the request mix outside the measured window.
  std::vector<Request> requests;
  for (int i = 0; i < 64; ++i) {
    Request request;
    request.app = bed.spec().id;
    request.key = static_cast<uint64_t>(i) * 2654435761ULL;
    request.shard = bed.spec().ShardForKey(request.key);
    request.type = (i % 3 == 0) ? RequestType::kWrite : RequestType::kRead;
    request.client_region = RegionId(0);
    requests.push_back(request);
  }
  ServerId excluded = bed.servers().front();

  int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  int picked = 0;
  for (int round = 0; round < 1000; ++round) {
    for (const Request& request : requests) {
      // First attempts and retry attempts with an excluded server: both must stay on the
      // allocation-free path.
      if (router->PickTargetForBench(request, 1, ServerId()).valid()) {
        ++picked;
      }
      if (router->PickTargetForBench(request, 2, excluded).valid()) {
        ++picked;
      }
    }
  }
  int64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0) << "PickTarget allocated on the hot path";
  EXPECT_EQ(picked, 2 * 64 * 1000);
}

TEST(SimulatorFastPath, SmallCallbackScheduleAllocatesNothingInSteadyState) {
  Simulator sim;
  int fired = 0;
  // Warm up: let the event pool and heap reach steady-state capacity.
  for (int i = 0; i < 512; ++i) {
    sim.Schedule(i, [&fired]() { ++fired; });
  }
  sim.RunAll();
  int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      sim.Schedule(i, [&fired]() { ++fired; });
    }
    sim.RunAll();
  }
  int64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0) << "steady-state Schedule/Step allocated";
  EXPECT_EQ(fired, 512 + 100 * 256);
}

// A server that replies immediately: the round trip measures the RPC path, not an application.
struct LoopbackServer : public ShardServerApi {
  ServerId self;
  Status AddShard(ShardId, ReplicaRole) override { return Status::Ok(); }
  Status DropShard(ShardId) override { return Status::Ok(); }
  Status ChangeRole(ShardId, ReplicaRole, ReplicaRole) override { return Status::Ok(); }
  Status PrepareAddShard(ShardId, ServerId, ReplicaRole) override { return Status::Ok(); }
  Status PrepareDropShard(ShardId, ServerId, ReplicaRole) override { return Status::Ok(); }
  ShardLoadReport ReportLoads() override { return {}; }
  void HandleRequest(const Request&, ReplyCallback done) override {
    Reply reply;
    reply.served_by = self;
    done(reply);
  }
};

TEST(RouterFastPath, RouteRoundTripAllocationBudget) {
  // End-to-end Route over loopback servers in 3 regions: pick, request hop, server reply,
  // reply hop, timeout cancel and outcome delivery. The call record and the router's attempt
  // are pooled, and every closure is stored inline: the wire closures carry a 16-byte call
  // handle, and the server-side reply callback (route plus handle, 32 bytes) is a
  // SmallFn<void(const Reply&)>. A steady-state round trip allocates nothing.
  Simulator sim;
  Network net(&sim, LatencyModel(3, Millis(1), Millis(40)), 5);
  ServiceDiscovery discovery(&sim, Millis(1), Millis(2), 7);
  ServerRegistry registry;
  constexpr int kServers = 48;
  constexpr int kShards = 512;
  std::vector<LoopbackServer> servers(kServers);
  for (int i = 0; i < kServers; ++i) {
    servers[static_cast<size_t>(i)].self = ServerId(i);
    ServerHandle handle;
    handle.id = ServerId(i);
    handle.container = ContainerId(i);
    handle.app = AppId(1);
    handle.region = RegionId(i % 3);
    handle.api = &servers[static_cast<size_t>(i)];
    registry.Register(handle);
  }
  AppSpec spec =
      MakeUniformAppSpec(AppId(1), "budget", kShards, ReplicationStrategy::kSecondaryOnly, 3);
  ServiceRouter router(&sim, &net, &discovery, &registry, &spec, RegionId(0), RouterConfig{},
                       11);
  ShardMap map;
  map.app = AppId(1);
  map.version = 1;
  map.entries.resize(kShards);
  for (int s = 0; s < kShards; ++s) {
    map.entries[static_cast<size_t>(s)].shard = ShardId(s);
    for (int r = 0; r < 3; ++r) {
      ShardMapReplica replica;
      replica.server = ServerId((s + r * 17) % kServers);
      replica.role = r == 0 ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
      replica.region = RegionId(replica.server.value % 3);
      map.entries[static_cast<size_t>(s)].replicas.push_back(replica);
    }
  }
  discovery.Publish(map);
  sim.RunFor(Seconds(1));

  int64_t ok = 0;
  auto route_batch = [&](int count, uint64_t salt) {
    for (int i = 0; i < count; ++i) {
      router.Route((static_cast<uint64_t>(i) + salt) * 2654435761ULL, RequestType::kRead,
                   [&ok](const RequestOutcome& outcome) { ok += outcome.success ? 1 : 0; });
    }
    sim.RunAll();
  };
  route_batch(256, 0);  // warm-up: pools, event slab and heap reach steady-state capacity
  constexpr int kRounds = 20;
  constexpr int kBatch = 256;
  const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < kRounds; ++round) {
    route_batch(kBatch, static_cast<uint64_t>(round + 1) * 7919);
  }
  const int64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(ok, 256 + kRounds * kBatch);
  EXPECT_EQ(sim.PendingEvents(), 0u);  // every timeout was cancelled by its reply
  EXPECT_EQ(registry.RpcCallsInFlight(), 0u);
  EXPECT_EQ(allocs, 0) << "allocations over " << kRounds * kBatch << " end-to-end Routes";
}

// -- Retry accounting --------------------------------------------------------------------------

TEST(RouterRetries, TimedOutAttemptExcludesItsTargetAndCountsRetry) {
  SM_REQUIRE_OBS();
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 4;
  config.app =
      MakeUniformAppSpec(AppId(1), "retries", 8, ReplicationStrategy::kSecondaryOnly, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 24;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  bed.sim().RunFor(Minutes(2));  // periodic allocation spreads replicas across regions
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));
  int64_t retries_before = obs::DefaultMetrics().Snapshot().CounterValue("sm.router.retries");

  // Kill every region-0 server. A local read's first attempt times out (no reply, so no
  // served_by hint); the retry must exclude the dead target it actually sent to, so the
  // second attempt goes straight to the surviving remote replica.
  bed.FailRegion(RegionId(0));
  int succeeded = 0;
  std::vector<int> attempt_counts;
  for (int i = 0; i < 10; ++i) {
    RequestOutcome out;
    bool done = false;
    router->Route(static_cast<uint64_t>(i) * 123457ULL, RequestType::kRead,
                  [&](const RequestOutcome& outcome) {
                    out = outcome;
                    done = true;
                  });
    bed.sim().RunFor(Seconds(10));
    ASSERT_TRUE(done);
    if (out.success) {
      ++succeeded;
      attempt_counts.push_back(out.attempts);
      EXPECT_EQ(bed.region_of(out.served_by), RegionId(1));
    }
  }
  ASSERT_GT(succeeded, 0);
  for (int attempts : attempt_counts) {
    // One timeout, then the exclusion sends attempt 2 to the live replica: never more than 2
    // attempts when only one server has failed per shard.
    EXPECT_LE(attempts, 2);
  }
  int64_t retries_after = obs::DefaultMetrics().Snapshot().CounterValue("sm.router.retries");
  EXPECT_GT(retries_after, retries_before);
}

// -- Determinism -------------------------------------------------------------------------------

struct DeterminismRun {
  std::string metrics_jsonl;
  std::string trace_json;
  int64_t probe_succeeded = 0;
};

// Strips wall-clock-derived lines ("*_per_sec" gauges and "*_wall_ms" histograms measure host
// speed, not simulated behavior) so the rest of the export can be byte-compared.
std::string StripWallClockLines(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("per_sec") == std::string::npos && line.find("wall_ms") == std::string::npos) {
      out << line << '\n';
    }
  }
  return out.str();
}

// A small fig16-style scenario: geo bed, probe traffic, a failover mid-run (new map versions
// disseminate while requests are in flight), then quiesce.
DeterminismRun RunSeededScenario(uint64_t seed, int solver_threads) {
  obs::DefaultMetrics().ResetValues();
  obs::DefaultTracer().Clear();
  obs::DefaultTracer().Enable();

  DeterminismRun result;
  {
    TestbedConfig config;
    config.regions = {"r0", "r1"};
    config.servers_per_region = 6;
    config.app = MakeUniformAppSpec(AppId(1), "determinism", 24,
                                    ReplicationStrategy::kPrimarySecondary, 2);
    config.app.placement.metrics = MetricSet({"cpu"});
    config.seed = seed;
    config.mini_sm.orchestrator.solver_threads = solver_threads;
    Testbed bed(config);
    bed.Start();
    EXPECT_TRUE(bed.RunUntilAllReady(Minutes(5)));

    ProbeConfig probe_config;
    probe_config.requests_per_second = 50;
    probe_config.write_fraction = 0.4;
    probe_config.seed = seed + 1;
    ProbeDriver probe(&bed, RegionId(1), probe_config);
    probe.Start();
    bed.sim().RunFor(Seconds(20));

    // Failover: drain one primary-heavy server so maps republish under load.
    bed.orchestrator().DrainServer(bed.servers().front(), true, true, []() {});
    bed.sim().RunFor(Minutes(2));
    probe.Stop();
    result.probe_succeeded = probe.total_succeeded();
  }
  std::ostringstream metrics;
  obs::DefaultMetrics().WriteJsonl(metrics);
  result.metrics_jsonl = StripWallClockLines(metrics.str());
  result.trace_json = obs::DefaultTracer().ChromeTraceJson();
  obs::DefaultTracer().Disable();
  return result;
}

TEST(DataplaneDeterminism, SameSeedIsByteIdenticalAcrossRuns) {
  SM_REQUIRE_OBS();
  DeterminismRun a = RunSeededScenario(31337, 1);
  DeterminismRun b = RunSeededScenario(31337, 1);
  EXPECT_GT(a.probe_succeeded, 0);
  EXPECT_EQ(a.probe_succeeded, b.probe_succeeded);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

// Drops solver execution-strategy metrics (thread pool, portfolio scheduling): they describe
// how the solver ran, which legitimately differs with the thread count, while every metric of
// *simulated* behavior must stay byte-identical (DESIGN.md §8).
std::string StripSolverExecutionLines(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("sm.solver.pool_") == std::string::npos &&
        line.find("sm.solver.portfolio_") == std::string::npos) {
      out << line << '\n';
    }
  }
  return out.str();
}

TEST(DataplaneDeterminism, SolverThreadCountDoesNotChangeResults) {
  SM_REQUIRE_OBS();
  DeterminismRun one = RunSeededScenario(424243, 1);
  DeterminismRun eight = RunSeededScenario(424243, 8);
  EXPECT_GT(one.probe_succeeded, 0);
  EXPECT_EQ(one.probe_succeeded, eight.probe_succeeded);
  EXPECT_EQ(StripSolverExecutionLines(one.metrics_jsonl),
            StripSolverExecutionLines(eight.metrics_jsonl));
  EXPECT_EQ(one.trace_json, eight.trace_json);
}

}  // namespace
}  // namespace shardman
