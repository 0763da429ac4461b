// Control-plane steady state (DESIGN.md §9, "Control-plane steady state"): the orchestrator's
// per-server table behind PickDrainTarget, the buffers that load polls and periodic repairs
// keep between rounds, and the cached server and container lists.
//
//   * an oracle: PickDrainTarget's pick equals a brute-force argmin rebuilt from the
//     orchestrator's authoritative maps through randomized drains, moves, retries, liveness
//     flips, cancelled drains and late-registered servers, so a stale table counter fails it;
//   * allocation budgets with a binary-wide operator new counter;
//   * buffer-reuse guards: a shrinking load report, a server registered after the first
//     ServersOf call, a container that stops after the first ContainersOf call.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/common/rng.h"
#include "src/workload/testbed.h"

// Binary-wide allocation counter, as in dataplane_test.cc: every operator new in this process
// bumps it. Compiled out under ASan (its allocator interception rejects the replacement); the
// budget assertions are then vacuous there and the Release/Debug lanes enforce them.
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

// Reaches the orchestrator's private drain-target and load-poll paths.
class OrchestratorTestPeer {
 public:
  static ServerId Pick(Orchestrator& o, ShardId shard, ServerId from) {
    return o.PickDrainTarget(shard, from);
  }
  static void PollLoads(Orchestrator& o) { o.PollLoads(); }
  // The lowest-id server with a place or move on its way in, or an invalid id.
  static ServerId InboundTarget(const Orchestrator& o) {
    ServerId target;
    for (const auto& [id, count] : o.inbound_moves_) {
      if (count > 0 && (!target.valid() || id < target.value)) {
        target = ServerId(id);
      }
    }
    return target;
  }
  static const ShardLoadReport* RetainedReport(const Orchestrator& o, ServerId server) {
    auto it = o.row_of_.find(server.value);
    return it == o.row_of_.end() ? nullptr : &o.rows_[static_cast<size_t>(it->second)].report;
  }

  // The pick rebuilt from scratch: the app's servers from the registry, replica counts and
  // load sums from server_replicas_, inbound moves from inbound_moves_ and drains from
  // server_draining_. Nothing here reads the per-server table.
  static ServerId BruteForcePick(const Orchestrator& o, ShardId shard, ServerId from) {
    const Orchestrator::ShardRuntime& rt = o.shards_[static_cast<size_t>(shard.value)];
    RegionId from_region;
    if (const ServerHandle* handle = o.registry_->Get(from)) {
      from_region = handle->region;
    }
    struct Key {
      int tier;
      double score;
      size_t count;
      int32_t id;
      bool operator<(const Key& other) const {
        if (tier != other.tier) return tier < other.tier;
        if (score != other.score) return score < other.score;
        if (count != other.count) return count < other.count;
        return id < other.id;
      }
    };
    bool found = false;
    Key best{};
    std::vector<ServerId> servers = o.registry_->ServersOf(o.spec_.id);
    for (ServerId id : servers) {
      const ServerHandle* handle = o.registry_->Get(id);
      if (id == from || !handle->alive || o.server_draining_.count(id.value) > 0) {
        continue;
      }
      bool occupied = false;
      for (const Orchestrator::ReplicaRuntime& r : rt.replicas) {
        occupied = occupied || r.server == id;
      }
      if (occupied) {
        continue;
      }
      Key key{2, 0.0, 0, id.value};
      if (rt.preferred_region.valid() && handle->region == rt.preferred_region) {
        key.tier = 0;
      } else if (from_region.valid() && handle->region == from_region) {
        key.tier = 1;
      }
      double total = 0.0;
      auto bound = o.server_replicas_.find(id.value);
      if (bound != o.server_replicas_.end()) {
        for (int64_t replica_key : bound->second) {
          total += o.Replica(ShardId(static_cast<int32_t>(replica_key >> 16)),
                             static_cast<int>(replica_key & 0xFFFF))
                       .load.Total();
        }
        key.count = bound->second.size();
      }
      auto inbound = o.inbound_moves_.find(id.value);
      if (inbound != o.inbound_moves_.end()) {
        key.count += static_cast<size_t>(inbound->second);
      }
      key.score = total / std::max(1e-9, handle->capacity.Total());
      if (!found || key < best) {
        best = key;
        found = true;
      }
    }
    return found ? ServerId(best.id) : ServerId();
  }
};

namespace {

// Every shard, from nowhere and from each server it is bound to: the table's pick must equal
// the brute force.
void CheckEveryPick(Orchestrator& orchestrator, int step) {
  for (int s = 0; s < orchestrator.num_shards(); ++s) {
    const ShardId shard(s);
    std::vector<ServerId> froms = {ServerId()};
    for (int r = 0; r < orchestrator.ReplicaCount(shard); ++r) {
      froms.push_back(orchestrator.replica_server(shard, r));
    }
    for (ServerId from : froms) {
      const ServerId expected = OrchestratorTestPeer::BruteForcePick(orchestrator, shard, from);
      ASSERT_EQ(OrchestratorTestPeer::Pick(orchestrator, shard, from), expected)
          << "step " << step << " shard " << s << " from " << from.value;
    }
  }
}

TEST(DrainTargetOracle, TablePickEqualsBruteForceArgmin) {
  TestbedConfig config;
  config.regions = {"r0", "r1"};
  config.servers_per_region = 5;
  config.app = MakeUniformAppSpec(AppId(1), "oracle", 48,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.graceful_migration = true;
  for (int s = 0; s < 48; ++s) {
    config.shard_load_scalars.push_back(0.2 + (s % 7) / 3.0);
  }
  config.request_rate_cost = 0.25;  // polls report traffic, so loads keep changing
  config.mini_sm.orchestrator.load_poll_interval = Seconds(2);
  config.mini_sm.orchestrator.max_op_attempts = 4;
  config.seed = 77;
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  std::unique_ptr<ServiceRouter> router = bed.CreateRouter(RegionId(0));
  Orchestrator& orchestrator = bed.orchestrator();
  for (int s = 0; s < 48; s += 5) {  // tier 0 is exercised by a preferred region
    orchestrator.SetRegionPreference(ShardId(s), RegionId(s % 2), 1.0, 1);
  }

  Rng rng(31337);
  int pending_states = 0;
  int late_servers = 0;
  for (int step = 0; step < 160; ++step) {
    std::vector<ServerId> servers = bed.servers();
    std::sort(servers.begin(), servers.end());
    const ServerId server = servers[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(servers.size()) - 1))];
    switch (rng.UniformInt(0, 6)) {
      case 0:  // a drain: moves start at once and count as inbound on their targets
        orchestrator.DrainServer(server, true, true, []() {});
        break;
      case 1:  // a cancelled drain
        orchestrator.CancelDrain(server);
        break;
      case 2: {  // a drain whose first move target then dies: that move fails and retries
        orchestrator.DrainServer(server, true, true, []() {});
        const ServerId victim = OrchestratorTestPeer::InboundTarget(orchestrator);
        if (victim.valid()) {
          CheckEveryPick(orchestrator, step);
          bed.cluster_manager(bed.region_of(victim))
              .FailContainer(bed.container_of(victim), Millis(rng.UniformInt(200, 15000)));
        }
        break;
      }
      case 3:  // allocator moves
        orchestrator.TriggerPeriodicAllocation();
        break;
      case 4: {  // traffic moves the next poll's loads
        for (int i = 0; i < 40; ++i) {
          router->Route(rng.Next(), RequestType::kWrite, [](const RequestOutcome&) {});
        }
        break;
      }
      case 5:
        if (late_servers < 2) {  // a server registered after the table was built
          bed.ScaleOut(RegionId(static_cast<int32_t>(rng.UniformInt(0, 1))), 1);
          ++late_servers;
        }
        break;
      default:  // only time passes
        break;
    }
    // Compare right away (drain moves are in flight) and after the sim moved on.
    for (int phase = 0; phase < 2; ++phase) {
      if (phase == 1) {
        bed.sim().RunFor(Millis(rng.UniformInt(1, 3000)));
      }
      pending_states += orchestrator.pending_ops() > 0 ? 1 : 0;
      CheckEveryPick(orchestrator, step);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(pending_states, 10);  // the comparison did see moves in flight
  EXPECT_EQ(late_servers, 2);
  EXPECT_GT(orchestrator.failed_ops(), 0);  // and failed ops with retries
}

// Allocations made while `fn` runs.
template <typename Fn>
int64_t CountAllocs(Fn&& fn) {
  const int64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  fn();
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

// rolling_upgrade's fleet: one region, 60 servers, 3,000 primary-only shards.
TestbedConfig FleetConfig() {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 60;
  config.app =
      MakeUniformAppSpec(AppId(1), "steady", 3000, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.seed = 7;
  return config;
}

TEST(ControlPlaneAllocationBudget, WarmPollAndDrainTargetAllocateNothing) {
  Testbed bed(FleetConfig());
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(10)));
  bed.sim().RunFor(Seconds(5));
  Orchestrator& orchestrator = bed.orchestrator();
  OrchestratorTestPeer::PollLoads(orchestrator);  // sizes every retained report

  const int64_t poll = CountAllocs([&] { OrchestratorTestPeer::PollLoads(orchestrator); });
  ServerId target;
  const int64_t pick = CountAllocs([&] {
    target = OrchestratorTestPeer::Pick(orchestrator, ShardId(17),
                                        orchestrator.replica_server(ShardId(17), 0));
  });
  EXPECT_TRUE(target.valid());
  if (SM_COUNT_ALLOCS) {
    EXPECT_EQ(poll, 0);
    EXPECT_EQ(pick, 0);
  }
}

TEST(ControlPlaneAllocationBudget, SecondPeriodicRepairOfUnchangedFleet) {
  Testbed bed(FleetConfig());
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(10)));
  Orchestrator& orchestrator = bed.orchestrator();
  // A first round fills the retained snapshot, problem, warm cache and solver buffers; let
  // whatever it moved settle.
  orchestrator.TriggerPeriodicAllocation();
  for (int i = 0; i < 600 && orchestrator.pending_ops() > 0; ++i) {
    bed.sim().RunFor(Millis(100));
  }
  ASSERT_EQ(orchestrator.pending_ops(), 0);
  const int64_t moves = orchestrator.completed_moves();

  const int64_t repair = CountAllocs([&] { orchestrator.TriggerPeriodicAllocation(); });
  EXPECT_EQ(orchestrator.pending_ops(), 0);  // the fleet was unchanged: nothing to move
  EXPECT_EQ(orchestrator.completed_moves(), moves);
  // A round that rebuilt the snapshot, the problem, the warm cache and the class map made
  // 18,810 allocations; with them kept it makes 139. The budget leaves room for the solver's
  // per-run vectors, not for an allocation per shard or per replica.
  if (SM_COUNT_ALLOCS) {
    EXPECT_LE(repair, 400);
  }
}

TEST(RetainedBuffers, ShrunkLoadReportHasNoStaleTail) {
  TestbedConfig config = FleetConfig();
  config.servers_per_region = 4;
  config.app = MakeUniformAppSpec(AppId(1), "shrink", 24, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  for (int s = 0; s < 24; ++s) {
    config.shard_load_scalars.push_back(1.0 + s);
  }
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  Orchestrator& orchestrator = bed.orchestrator();
  std::vector<ServerId> servers = bed.servers();
  std::sort(servers.begin(), servers.end());
  const ServerId server = servers.front();

  // The app server side: a report that held more entries than the server hosts now is
  // refilled to exactly what a fresh report holds.
  ShardHostBase* app = bed.app_server(server);
  ShardLoadReport fresh;
  app->ReportLoads(fresh);
  ASSERT_FALSE(fresh.entries.empty());
  ShardLoadReport reused;
  reused.entries.resize(fresh.entries.size() + 5);
  for (ShardLoadEntry& entry : reused.entries) {
    entry.shard = ShardId(9999);
    entry.load = ResourceVector{1e6};
  }
  app->ReportLoads(reused);
  ASSERT_EQ(reused.entries.size(), fresh.entries.size());
  for (size_t i = 0; i < fresh.entries.size(); ++i) {
    EXPECT_EQ(reused.entries[i].shard, fresh.entries[i].shard);
    EXPECT_EQ(reused.entries[i].load, fresh.entries[i].load);
  }

  // The orchestrator side: the server's retained report shrinks with its shards.
  OrchestratorTestPeer::PollLoads(orchestrator);
  const ShardLoadReport* retained = OrchestratorTestPeer::RetainedReport(orchestrator, server);
  ASSERT_NE(retained, nullptr);
  const size_t before = retained->entries.size();
  ASSERT_GT(before, 0u);
  bool drained = false;
  orchestrator.DrainServer(server, true, true, [&]() { drained = true; });
  for (int i = 0; i < 600 && !drained; ++i) {
    bed.sim().RunFor(Millis(100));
  }
  ASSERT_TRUE(drained);
  bed.sim().RunFor(Seconds(3));  // the drained server has dropped its last copies
  OrchestratorTestPeer::PollLoads(orchestrator);
  EXPECT_TRUE(retained->entries.empty());
  // Every replica's load is still its own shard's, never a stale entry's.
  for (int s = 0; s < orchestrator.num_shards(); ++s) {
    EXPECT_EQ(orchestrator.replica_load(ShardId(s), 0), ResourceVector{1.0 + s}) << s;
  }
}

TEST(RetainedBuffers, ServersOfIncludesLateRegistration) {
  ServerRegistry registry;
  auto add = [&registry](int32_t id) {
    ServerHandle handle;
    handle.id = ServerId(id);
    handle.container = ContainerId(id);
    handle.app = AppId(1);
    registry.Register(handle);
  };
  add(1'000'001);
  add(1'000'002);
  ASSERT_EQ(registry.ServersOf(AppId(1)).size(), 2u);
  add(2'000'001);
  const std::vector<ServerId>& servers = registry.ServersOf(AppId(1));
  EXPECT_EQ(servers.size(), 3u);
  EXPECT_NE(std::find(servers.begin(), servers.end(), ServerId(2'000'001)), servers.end());
  EXPECT_TRUE(registry.ServersOf(AppId(2)).empty());
}

TEST(RetainedBuffers, ContainersOfDropsStoppedContainer) {
  Simulator sim;
  SymmetricTopologySpec spec;
  spec.region_names = {"r0"};
  spec.data_centers_per_region = 1;
  spec.racks_per_data_center = 2;
  spec.machines_per_rack = 2;
  spec.base_capacity = ResourceVector{100.0};
  Topology topology = BuildSymmetric(spec);
  ClusterManager cm(&sim, &topology, RegionId(0), 1, 5);
  Result<std::vector<ContainerId>> job = cm.CreateJob(AppId(1), 3);
  ASSERT_TRUE(job.ok());
  ASSERT_EQ(cm.ContainersOf(AppId(1)).size(), 3u);
  const ContainerId victim = job.value()[1];
  ASSERT_TRUE(cm.RequestStop(victim).ok());  // no TaskController: approved at once
  sim.RunFor(Seconds(1));
  ASSERT_EQ(cm.container(victim).state, ContainerState::kStopped);
  const std::vector<ContainerId>& live = cm.ContainersOf(AppId(1));
  EXPECT_EQ(live.size(), 2u);
  EXPECT_EQ(std::find(live.begin(), live.end(), victim), live.end());
}

}  // namespace
}  // namespace shardman
