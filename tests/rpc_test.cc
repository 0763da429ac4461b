// Failure-injection tests for the RPC layer, the SM library glue, and the orchestrator's
// behaviour when servers or the network fail mid-protocol.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/server_registry.h"
#include "src/core/sm_library.h"
#include "src/apps/kv_store_app.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

// ---- CallControl / CallData --------------------------------------------------------------------

struct RpcFixture {
  RpcFixture() : network(&sim, LatencyModel(2, Millis(1), Millis(40)), 1) {
    network.set_jitter_fraction(0.0);
  }
  KvStoreApp* AddServer(ServerId id, RegionId region) {
    auto app = std::make_unique<KvStoreApp>(&sim, &network, &registry, id, region, 1);
    KvStoreApp* raw = app.get();
    apps.push_back(std::move(app));
    ServerHandle handle;
    handle.id = id;
    handle.container = ContainerId(id.value);
    handle.app = AppId(1);
    handle.region = region;
    handle.capacity = ResourceVector{100.0};
    handle.api = raw;
    registry.Register(handle);
    return raw;
  }
  Simulator sim;
  Network network;
  ServerRegistry registry;
  std::vector<std::unique_ptr<KvStoreApp>> apps;
};

TEST(CallControlTest, RoundTripsAcrossRegions) {
  RpcFixture fx;
  fx.AddServer(ServerId(1), RegionId(1));
  Status status = InternalError("unset");
  TimeMicros done_at = -1;
  CallControl(fx.network, RegionId(0), fx.registry, ServerId(1),
              [](ShardServerApi& api) { return api.AddShard(ShardId(0), ReplicaRole::kPrimary); },
              [&](const Status& s) {
                status = s;
                done_at = fx.sim.Now();
              });
  fx.sim.RunAll();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(done_at, Millis(80));  // two 40ms wide-area hops
  EXPECT_TRUE(fx.apps[0]->Hosts(ShardId(0)));
}

TEST(CallControlTest, DeadServerTimesOut) {
  RpcFixture fx;
  fx.AddServer(ServerId(1), RegionId(1));
  fx.registry.SetAlive(ServerId(1), false);
  Status status;
  CallControl(fx.network, RegionId(0), fx.registry, ServerId(1),
              [](ShardServerApi& api) { return api.DropShard(ShardId(0)); },
              [&](const Status& s) { status = s; }, /*timeout=*/Millis(500));
  fx.sim.RunAll();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(CallControlTest, UnknownServerFailsFast) {
  RpcFixture fx;
  Status status;
  CallControl(fx.network, RegionId(0), fx.registry, ServerId(77),
              [](ShardServerApi& api) { return api.DropShard(ShardId(0)); },
              [&](const Status& s) { status = s; });
  fx.sim.RunAll();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(CallControlTest, ServerDyingMidFlightTimesOut) {
  RpcFixture fx;
  fx.AddServer(ServerId(1), RegionId(1));
  Status status = Status::Ok();
  bool done = false;
  CallControl(fx.network, RegionId(0), fx.registry, ServerId(1),
              [](ShardServerApi& api) { return api.AddShard(ShardId(0), ReplicaRole::kPrimary); },
              [&](const Status& s) {
                status = s;
                done = true;
              });
  // Kill the server while the request is on the wire (before the 40ms delivery).
  fx.sim.RunFor(Millis(10));
  fx.registry.SetAlive(ServerId(1), false);
  fx.sim.RunAll();
  ASSERT_TRUE(done);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(CallDataTest, DeliversRequestAndReply) {
  RpcFixture fx;
  KvStoreApp* app = fx.AddServer(ServerId(1), RegionId(0));
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  Request request;
  request.app = AppId(1);
  request.shard = ShardId(0);
  request.key = 5;
  request.type = RequestType::kWrite;
  request.payload = 99;
  Reply reply;
  CallData(fx.network, RegionId(0), fx.registry, ServerId(1), request,
           [&](const Reply& r) { reply = r; });
  fx.sim.RunAll();
  EXPECT_TRUE(reply.ok());
  EXPECT_EQ(reply.served_by, ServerId(1));
  EXPECT_EQ(app->ShardSize(ShardId(0)), 1u);
}

TEST(CallDataTest, RoundTripCancelsItsTimeout) {
  RpcFixture fx;
  KvStoreApp* app = fx.AddServer(ServerId(1), RegionId(1));
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  Request request;
  request.app = AppId(1);
  request.shard = ShardId(0);
  request.key = 5;
  int replies = 0;
  CallData(fx.network, RegionId(0), fx.registry, ServerId(1), request,
           [&](const Reply& r) {
             ++replies;
             EXPECT_TRUE(r.ok());
             // The reply wins: its timeout has already left the queue.
             EXPECT_EQ(fx.sim.PendingEvents(), 0u);
           });
  EXPECT_EQ(fx.sim.PendingEvents(), 2u);  // the request hop and the armed timeout
  fx.sim.RunAll();
  EXPECT_EQ(replies, 1);
  // Exactly two network hops plus the server's queued work — no no-op timeout event.
  EXPECT_EQ(fx.network.messages_sent(), 2u);
  EXPECT_EQ(fx.sim.ExecutedEvents(), 3u);
  EXPECT_EQ(fx.sim.Now(), Millis(81));  // 40ms each way + 1ms processing
  EXPECT_EQ(fx.registry.RpcCallsInFlight(), 0u);
}

TEST(CallControlTest, RoundTripCancelsItsTimeout) {
  RpcFixture fx;
  fx.AddServer(ServerId(1), RegionId(1));
  int replies = 0;
  CallControl(fx.network, RegionId(0), fx.registry, ServerId(1),
              [](ShardServerApi& api) { return api.AddShard(ShardId(0), ReplicaRole::kPrimary); },
              [&](const Status& s) {
                ++replies;
                EXPECT_TRUE(s.ok());
              });
  fx.sim.RunAll();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(fx.sim.ExecutedEvents(), 2u);  // request hop + reply hop
  EXPECT_EQ(fx.sim.PendingEvents(), 0u);
  EXPECT_EQ(fx.sim.Now(), Millis(80));
  EXPECT_EQ(fx.registry.RpcCallsInFlight(), 0u);
}

TEST(CallControlTest, TimeoutThenLateReplyCallsDoneOnceWithTimeout) {
  RpcFixture fx;
  KvStoreApp* app = fx.AddServer(ServerId(1), RegionId(1));
  int replies = 0;
  Status status;
  TimeMicros done_at = -1;
  // The round trip takes 80ms; the caller gives up after 50ms.
  CallControl(fx.network, RegionId(0), fx.registry, ServerId(1),
              [](ShardServerApi& api) { return api.AddShard(ShardId(0), ReplicaRole::kPrimary); },
              [&](const Status& s) {
                ++replies;
                status = s;
                done_at = fx.sim.Now();
              },
              /*timeout=*/Millis(50));
  fx.sim.RunAll();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(done_at, Millis(50));
  // The server still executed the request and replied; the late reply was a no-op.
  EXPECT_TRUE(app->Hosts(ShardId(0)));
  EXPECT_EQ(fx.network.messages_sent(), 2u);
  EXPECT_EQ(fx.registry.RpcCallsInFlight(), 0u);
}

TEST(CallDataTest, DuplicatedRequestAndReplyCallDoneOnce) {
  RpcFixture fx;
  KvStoreApp* app = fx.AddServer(ServerId(1), RegionId(1));
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  LinkQuality dupey;
  dupey.duplicate_probability = 1.0;
  fx.network.SetLinkQuality(RegionId(0), RegionId(1), dupey);
  fx.network.SetLinkQuality(RegionId(1), RegionId(0), dupey);
  Request request;
  request.app = AppId(1);
  request.shard = ShardId(0);
  request.key = 5;
  request.type = RequestType::kWrite;
  request.payload = 7;
  int replies = 0;
  CallData(fx.network, RegionId(0), fx.registry, ServerId(1), request, [&](const Reply& r) {
    ++replies;
    EXPECT_TRUE(r.ok());
  });
  fx.sim.RunAll();
  EXPECT_EQ(replies, 1);
  // Both request copies reached the server, and each of its two replies was duplicated.
  EXPECT_EQ(app->served_requests(), 2);
  EXPECT_EQ(fx.network.messages_duplicated(), 3u);
  EXPECT_EQ(fx.sim.PendingEvents(), 0u);
  EXPECT_EQ(fx.registry.RpcCallsInFlight(), 0u);
}

TEST(CallControlTest, StaleReplyAfterRecordReuseIsNoOp) {
  RpcFixture fx;
  fx.AddServer(ServerId(1), RegionId(1));
  std::vector<std::string> log;
  // Call A times out at 50ms; its request was delivered at 40ms, so its record is free again.
  CallControl(fx.network, RegionId(0), fx.registry, ServerId(1),
              [](ShardServerApi& api) { return api.AddShard(ShardId(0), ReplicaRole::kPrimary); },
              [&](const Status& s) {
                log.push_back("A " + std::string(StatusCodeName(s.code())) + " @" +
                              std::to_string(fx.sim.Now()));
              },
              /*timeout=*/Millis(50));
  // Call B reuses A's record at 60ms. A's reply lands at 80ms carrying A's stale handle and
  // must not resolve B, whose own reply lands at 140ms.
  fx.sim.Schedule(Millis(60), [&]() {
    EXPECT_EQ(fx.registry.RpcCallsInFlight(), 0u);
    CallControl(fx.network, RegionId(0), fx.registry, ServerId(1),
                [](ShardServerApi& api) { return api.DropShard(ShardId(0)); },
                [&](const Status& s) {
                  log.push_back("B " + std::string(StatusCodeName(s.code())) + " @" +
                                std::to_string(fx.sim.Now()));
                });
    EXPECT_EQ(fx.registry.RpcCallsInFlight(), 1u);
  });
  fx.sim.RunAll();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "A UNAVAILABLE @" + std::to_string(Millis(50)));
  EXPECT_EQ(log[1], "B OK @" + std::to_string(Millis(140)));
  EXPECT_EQ(fx.registry.RpcCallsInFlight(), 0u);
}

// ---- SmLibrary ----------------------------------------------------------------------------------

TEST(SmLibraryTest, ConnectCreatesEphemeralAndDisconnectRemovesIt) {
  RpcFixture fx;
  CoordStore coord;
  KvStoreApp* app = fx.AddServer(ServerId(3), RegionId(0));
  SmLibrary library(&coord, "libapp", ServerId(3), app);
  EXPECT_FALSE(library.connected());
  library.Connect();
  EXPECT_TRUE(library.connected());
  EXPECT_TRUE(coord.Exists(library.LivenessPath()));
  library.Connect();  // idempotent
  library.Disconnect();
  EXPECT_FALSE(library.connected());
  EXPECT_FALSE(coord.Exists(library.LivenessPath()));
}

TEST(SmLibraryTest, RestoreReaddsPersistedShardsWithRoles) {
  RpcFixture fx;
  CoordStore coord;
  KvStoreApp* app = fx.AddServer(ServerId(3), RegionId(0));
  SmLibrary library(&coord, "libapp", ServerId(3), app);
  std::vector<PersistedReplica> persisted = {
      {ShardId(2), 0, ReplicaRole::kPrimary},
      {ShardId(5), 1, ReplicaRole::kSecondary},
  };
  ASSERT_TRUE(coord.Set(library.AssignmentPath(), SerializeAssignment(persisted)).ok());
  EXPECT_EQ(library.RestoreAssignmentFromCoord(), 2);
  EXPECT_TRUE(app->Serving(ShardId(2)));
  EXPECT_TRUE(app->AcceptsDirectWrites(ShardId(2)));
  EXPECT_TRUE(app->Serving(ShardId(5)));
  EXPECT_FALSE(app->AcceptsDirectWrites(ShardId(5)));
  // Nothing persisted: nothing restored.
  SmLibrary empty(&coord, "libapp", ServerId(99), app);
  EXPECT_EQ(empty.RestoreAssignmentFromCoord(), 0);
}

// ---- Orchestrator under mid-protocol failures ---------------------------------------------------

TEST(MigrationFailureTest, TargetDeathMidMigrationKeepsOldPrimaryServing) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 4;
  config.app = MakeUniformAppSpec(AppId(1), "midfail", 8, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 66;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  bed.sim().RunFor(Seconds(5));

  // Start a drain, then kill a potential migration target almost immediately: some in-flight
  // graceful migrations will fail mid-handshake. The protocol must abort cleanly: every shard
  // keeps exactly one live owner, and the system converges.
  ServerId drain_victim = bed.servers()[0];
  ServerId kill_victim = bed.servers()[1];
  bed.orchestrator().DrainServer(drain_victim, true, true, []() {});
  bed.sim().RunFor(Millis(30));  // mid-handshake
  bed.cluster_manager(RegionId(0)).FailContainer(ContainerId(kill_victim.value), Seconds(60));
  bed.sim().RunFor(Minutes(3));
  bed.orchestrator().CancelDrain(drain_victim);
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    ServerId owner = bed.orchestrator().replica_server(ShardId(s), 0);
    ASSERT_TRUE(owner.valid());
    EXPECT_TRUE(bed.registry().IsAlive(owner));
    EXPECT_TRUE(bed.app_server(owner)->Serving(ShardId(s)));
  }
}

TEST(MigrationFailureTest, OpRetriesAfterFailureEventuallySucceed) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 3;
  config.app = MakeUniformAppSpec(AppId(1), "retry", 6, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 67;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  bed.sim().RunFor(Seconds(5));

  // Flap a server repeatedly while draining another: ops fail, get retried, and the system
  // converges with some failed_ops recorded.
  ServerId drain_victim = bed.servers()[0];
  ServerId flapper = bed.servers()[1];
  bed.orchestrator().DrainServer(drain_victim, true, true, []() {});
  for (int i = 0; i < 3; ++i) {
    bed.cluster_manager(RegionId(0)).FailContainer(ContainerId(flapper.value), Seconds(2));
    bed.sim().RunFor(Seconds(5));
  }
  bed.orchestrator().CancelDrain(drain_victim);
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
}

TEST(MigrationFailureTest, NetworkPartitionDuringMigrationAbortsCleanly) {
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 3;
  config.app = MakeUniformAppSpec(AppId(1), "part", 10, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.mini_sm.orchestrator.planned_restart_patience = Seconds(30);
  config.seed = 68;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  bed.sim().RunFor(Seconds(5));

  // Partition region 1 mid-drain: control RPCs to its servers are lost. Migrations targeting
  // region 1 must fail and retry elsewhere or wait; no shard may end up ownerless forever.
  ServerId drain_victim = bed.servers().front();
  bed.orchestrator().DrainServer(drain_victim, true, true, []() {});
  bed.sim().RunFor(Millis(50));
  bed.network().PartitionRegion(RegionId(1));
  bed.sim().RunFor(Minutes(1));
  bed.network().HealRegion(RegionId(1));
  bed.orchestrator().CancelDrain(drain_victim);
  bed.sim().RunFor(Minutes(3));
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));
  // Single-writer invariant still holds after the partition heals.
  for (int s = 0; s < bed.spec().num_shards(); ++s) {
    int writers = 0;
    for (ServerId id : bed.servers()) {
      if (bed.registry().IsAlive(id) && bed.app_server(id)->AcceptsDirectWrites(ShardId(s))) {
        ++writers;
      }
    }
    EXPECT_LE(writers, 1) << "shard " << s;
  }
}

}  // namespace
}  // namespace shardman
