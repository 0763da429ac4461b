// Tests for the application layer: the shard-host ownership state machine, KV semantics
// (including prefix scans), queue ordering, and replicated-store replication with epoch fencing.

#include <gtest/gtest.h>

#include "src/apps/kv_store_app.h"
#include "src/apps/queue_app.h"
#include "src/apps/replicated_store_app.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

// Harness for driving a standalone app server without the control plane.
class AppHarness {
 public:
  AppHarness() : network_(&sim_, LatencyModel(1, Millis(1), Millis(1)), 1) {}

  template <typename App, typename... Args>
  App* Create(ServerId id, Args&&... args) {
    auto app = std::make_unique<App>(&sim_, &network_, &registry_, id, RegionId(0), 1,
                                     std::forward<Args>(args)...);
    App* raw = app.get();
    ServerHandle handle;
    handle.id = id;
    handle.container = ContainerId(id.value);
    handle.app = AppId(1);
    handle.region = RegionId(0);
    handle.capacity = ResourceVector{100.0};
    handle.api = raw;
    registry_.Register(handle);
    apps_.push_back(std::move(app));
    return raw;
  }

  Reply Call(ShardServerApi* app, ShardId shard, uint64_t key, RequestType type,
             uint64_t payload = 0, bool forwarded = false) {
    Request request;
    request.app = AppId(1);
    request.shard = shard;
    request.key = key;
    request.type = type;
    request.payload = payload;
    request.forwarded = forwarded;
    request.client_region = RegionId(0);
    Reply out;
    bool done = false;
    app->HandleRequest(request, [&](const Reply& reply) {
      out = reply;
      done = true;
    });
    sim_.RunFor(Seconds(5));
    EXPECT_TRUE(done);
    return out;
  }

  Simulator sim_;
  Network network_;
  ServerRegistry registry_;
  std::vector<std::unique_ptr<ShardServerApi>> apps_;
};

TEST(KvStoreAppTest, ReadWriteScan) {
  AppHarness harness;
  KvStoreApp* app = harness.Create<KvStoreApp>(ServerId(1));
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());

  EXPECT_TRUE(harness.Call(app, ShardId(0), 10, RequestType::kWrite, 111).ok());
  EXPECT_TRUE(harness.Call(app, ShardId(0), 12, RequestType::kWrite, 222).ok());
  Reply read = harness.Call(app, ShardId(0), 10, RequestType::kRead);
  EXPECT_TRUE(read.ok());
  EXPECT_EQ(read.value, 111u);
  // Prefix scan from key 0 covers [0, 1024): both keys.
  Reply scan = harness.Call(app, ShardId(0), 0, RequestType::kScan);
  EXPECT_TRUE(scan.ok());
  EXPECT_EQ(scan.value, 2u);
  EXPECT_EQ(app->ShardSize(ShardId(0)), 2u);

  // Out-of-order writes land in key order; an overwrite keeps one entry with the new value.
  EXPECT_TRUE(harness.Call(app, ShardId(0), 1024, RequestType::kWrite, 333).ok());
  EXPECT_TRUE(harness.Call(app, ShardId(0), 5, RequestType::kWrite, 444).ok());
  EXPECT_TRUE(harness.Call(app, ShardId(0), 1023, RequestType::kWrite, 555).ok());
  EXPECT_TRUE(harness.Call(app, ShardId(0), 12, RequestType::kWrite, 666).ok());
  EXPECT_EQ(app->ShardSize(ShardId(0)), 5u);
  EXPECT_EQ(harness.Call(app, ShardId(0), 12, RequestType::kRead).value, 666u);
  EXPECT_EQ(harness.Call(app, ShardId(0), 5, RequestType::kRead).value, 444u);
  EXPECT_EQ(harness.Call(app, ShardId(0), 1024, RequestType::kRead).value, 333u);
  // A read miss returns 0, including between stored keys and past the last one.
  Reply miss = harness.Call(app, ShardId(0), 11, RequestType::kRead);
  EXPECT_TRUE(miss.ok());
  EXPECT_EQ(miss.value, 0u);
  EXPECT_EQ(harness.Call(app, ShardId(0), 4096, RequestType::kRead).value, 0u);
  // The scan covers [key, key + 1024): key 1023 is in and 1024, the bound, is out.
  EXPECT_EQ(harness.Call(app, ShardId(0), 0, RequestType::kScan).value, 4u);
  EXPECT_EQ(harness.Call(app, ShardId(0), 11, RequestType::kScan).value, 3u);
  EXPECT_EQ(harness.Call(app, ShardId(0), 1024, RequestType::kScan).value, 1u);
  EXPECT_EQ(harness.Call(app, ShardId(0), 1025, RequestType::kScan).value, 0u);

  // Dropping the shard discards its data: re-adding it starts empty.
  ASSERT_TRUE(app->DropShard(ShardId(0)).ok());
  EXPECT_EQ(app->ShardSize(ShardId(0)), 0u);
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  EXPECT_EQ(harness.Call(app, ShardId(0), 10, RequestType::kRead).value, 0u);
  EXPECT_EQ(harness.Call(app, ShardId(0), 0, RequestType::kScan).value, 0u);
  EXPECT_EQ(app->ShardSize(ShardId(0)), 0u);
}

TEST(KvStoreAppTest, RejectsUnownedShard) {
  AppHarness harness;
  KvStoreApp* app = harness.Create<KvStoreApp>(ServerId(1));
  Reply reply = harness.Call(app, ShardId(3), 1, RequestType::kRead);
  EXPECT_EQ(reply.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(app->rejected_requests(), 1);
}

TEST(KvStoreAppTest, SecondaryRejectsDirectWrites) {
  AppHarness harness;
  KvStoreApp* app = harness.Create<KvStoreApp>(ServerId(1));
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kSecondary).ok());
  EXPECT_EQ(harness.Call(app, ShardId(0), 1, RequestType::kWrite, 5).status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(harness.Call(app, ShardId(0), 1, RequestType::kRead).ok());
  app->set_allow_writes_on_secondary(true);
  EXPECT_TRUE(harness.Call(app, ShardId(0), 1, RequestType::kWrite, 5).ok());
}

TEST(ShardHostTest, MigrationStateMachine) {
  AppHarness harness;
  KvStoreApp* old_owner = harness.Create<KvStoreApp>(ServerId(1));
  KvStoreApp* new_owner = harness.Create<KvStoreApp>(ServerId(2));
  ASSERT_TRUE(old_owner->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());

  // Step 1: prepare the new owner — it must reject direct requests but accept forwarded ones.
  ASSERT_TRUE(new_owner->PrepareAddShard(ShardId(0), ServerId(1), ReplicaRole::kPrimary).ok());
  EXPECT_EQ(harness.Call(new_owner, ShardId(0), 1, RequestType::kWrite, 9).status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(
      harness.Call(new_owner, ShardId(0), 1, RequestType::kWrite, 9, /*forwarded=*/true).ok());
  EXPECT_FALSE(new_owner->AcceptsDirectWrites(ShardId(0)));

  // Step 2: the old owner starts forwarding. A client request routed to it must succeed
  // end-to-end (served by the new owner).
  ASSERT_TRUE(old_owner->PrepareDropShard(ShardId(0), ServerId(2), ReplicaRole::kPrimary).ok());
  Reply via_old = harness.Call(old_owner, ShardId(0), 2, RequestType::kWrite, 10);
  EXPECT_TRUE(via_old.ok());
  EXPECT_EQ(via_old.served_by, ServerId(2));
  EXPECT_EQ(old_owner->forwarded_requests(), 1);
  EXPECT_FALSE(old_owner->AcceptsDirectWrites(ShardId(0)));

  // Step 3: the new owner becomes official.
  ASSERT_TRUE(new_owner->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  EXPECT_TRUE(new_owner->AcceptsDirectWrites(ShardId(0)));
  EXPECT_TRUE(harness.Call(new_owner, ShardId(0), 3, RequestType::kWrite, 11).ok());

  // Step 5: the old owner drops its replica; direct requests to it now fail fast.
  ASSERT_TRUE(old_owner->DropShard(ShardId(0)).ok());
  EXPECT_EQ(harness.Call(old_owner, ShardId(0), 4, RequestType::kRead).status.code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardHostTest, ForwardingChainIsBounded) {
  AppHarness harness;
  KvStoreApp* a = harness.Create<KvStoreApp>(ServerId(1));
  KvStoreApp* b = harness.Create<KvStoreApp>(ServerId(2));
  // Misconfigured cycle: a forwards to b, b forwards to a.
  ASSERT_TRUE(a->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  ASSERT_TRUE(b->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  ASSERT_TRUE(a->PrepareDropShard(ShardId(0), ServerId(2), ReplicaRole::kPrimary).ok());
  ASSERT_TRUE(b->PrepareDropShard(ShardId(0), ServerId(1), ReplicaRole::kPrimary).ok());
  Reply reply = harness.Call(a, ShardId(0), 1, RequestType::kWrite, 1);
  EXPECT_FALSE(reply.ok());  // loop detected, not infinite
}

TEST(ShardHostTest, CrashLosesStateAndOwnership) {
  AppHarness harness;
  KvStoreApp* app = harness.Create<KvStoreApp>(ServerId(1));
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  harness.Call(app, ShardId(0), 1, RequestType::kWrite, 1);
  app->OnCrash();
  EXPECT_FALSE(app->Hosts(ShardId(0)));
  EXPECT_EQ(app->ShardSize(ShardId(0)), 0u);
}

TEST(ShardHostTest, EpochBumpsOnReacquisition) {
  AppHarness harness;
  QueueApp* app = harness.Create<QueueApp>(ServerId(1));
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  Reply first = harness.Call(app, ShardId(0), 1, RequestType::kWrite, 1);
  ASSERT_TRUE(app->DropShard(ShardId(0)).ok());
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  Reply second = harness.Call(app, ShardId(0), 1, RequestType::kWrite, 2);
  // (epoch, seq) must be strictly increasing even across ownership changes.
  EXPECT_GT(second.value, first.value);
}

TEST(QueueAppTest, FifoWithinEpoch) {
  AppHarness harness;
  QueueApp* app = harness.Create<QueueApp>(ServerId(1));
  ASSERT_TRUE(app->AddShard(ShardId(0), ReplicaRole::kPrimary).ok());
  uint64_t prev = 0;
  for (int i = 0; i < 10; ++i) {
    Reply reply = harness.Call(app, ShardId(0), 0, RequestType::kWrite, 100 + i);
    ASSERT_TRUE(reply.ok());
    EXPECT_GT(reply.value, prev);
    prev = reply.value;
  }
  EXPECT_EQ(app->QueueDepth(ShardId(0)), 10u);
  // Dequeues come back in enqueue order.
  prev = 0;
  for (int i = 0; i < 10; ++i) {
    Reply reply = harness.Call(app, ShardId(0), 0, RequestType::kRead);
    ASSERT_TRUE(reply.ok());
    EXPECT_GT(reply.value, prev);
    prev = reply.value;
  }
  EXPECT_EQ(app->QueueDepth(ShardId(0)), 0u);
}

TEST(ReplicatedStoreTest, WritesReplicateToSecondaries) {
  // Full-stack testbed: the replicated store discovers peers through the shard map.
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 3;
  config.app = MakeUniformAppSpec(AppId(1), "zippy", 4,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app_kind = TestAppKind::kReplicatedStore;
  config.seed = 77;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));

  auto router = bed.CreateRouter(RegionId(0));
  int successes = 0;
  for (int i = 0; i < 50; ++i) {
    router->Route(static_cast<uint64_t>(i) << 56, RequestType::kWrite, 1000 + i,
                  [&](const RequestOutcome& outcome) {
                    if (outcome.success) {
                      ++successes;
                    }
                  });
    bed.sim().RunFor(Millis(100));
  }
  bed.sim().RunFor(Seconds(10));
  EXPECT_GT(successes, 45);

  // Every secondary has applied entries (replication flowed).
  int64_t applied = 0;
  for (ServerId id : bed.servers()) {
    auto* app = dynamic_cast<ReplicatedStoreApp*>(bed.app_server(id));
    ASSERT_NE(app, nullptr);
    applied += app->applied_entries();
  }
  EXPECT_GT(applied, 0);
}

}  // namespace
}  // namespace shardman
