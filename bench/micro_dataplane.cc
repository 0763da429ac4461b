// Micro-benchmarks for the data-plane hot paths (DESIGN.md §9):
//
//   1. Simulator event throughput — chains of small self-rescheduling callbacks exercise the
//      SmallFunction inline path and the free-listed event pool.
//   2. Shard-map dissemination — many apps x many subscribers x large maps; zero-copy publish
//      hands every subscriber the same immutable map.
//   3. Router target selection — PickTarget against the per-version routing cache, with the
//      binary-wide allocation counter asserting the fast path stays heap-free.
//   4. End-to-end Route through loopback servers (two simulated network hops per attempt), with
//      the same allocation counter reporting heap allocations per routed round trip.
//   5. Delta dissemination (DESIGN.md §10) — a 100k-shard app under steady rebalancing,
//      published to router subscribers that receive every version as a delta vs subscribers
//      forced onto gap-recovery snapshots. Reports disseminated entries and per-publish apply
//      cost for both, the reduction factors, and verifies both sides leave every subscriber
//      byte-identical (nonzero exit on divergence).
//
// Writes BENCH_dataplane.json and the delta comparison BENCH_delta.json into the working
// directory (shared schema, DESIGN.md §16); scripts/check_bench_regression.py evaluates their
// gates against the committed files. SM_BENCH_SCALE (e.g. 0.1) shrinks iteration counts for
// smoke runs; the throughput rates and reduction factors stay comparable, the absolute counts
// do not.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/app_spec.h"
#include "src/core/server_registry.h"
#include "src/discovery/service_discovery.h"
#include "src/routing/service_router.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

// Binary-wide allocation counter for allocs_per_pick. Replacing operator new is incompatible
// with ASan's allocator interception, so the overrides are compiled out under sanitizers
// (allocs_per_pick then reads 0 regardless — use a plain build for that number).
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
std::atomic<long long> g_heap_allocs{0};
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

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// A server that replies immediately: the bench measures the routing path, not an application.
struct LoopbackServer : public ShardServerApi {
  ServerId self;
  Status AddShard(ShardId, ReplicaRole) override { return Status::Ok(); }
  Status DropShard(ShardId) override { return Status::Ok(); }
  Status ChangeRole(ShardId, ReplicaRole, ReplicaRole) override { return Status::Ok(); }
  Status PrepareAddShard(ShardId, ServerId, ReplicaRole) override { return Status::Ok(); }
  Status PrepareDropShard(ShardId, ServerId, ReplicaRole) override { return Status::Ok(); }
  void ReportLoads(ShardLoadReport& report) override { report.entries.clear(); }
  void HandleRequest(const Request&, ReplyCallback done) override {
    Reply reply;
    reply.served_by = self;
    done(reply);
  }
};

ShardMap MakeMap(AppId app, int64_t version, int shards, int replicas, int regions,
                 int servers) {
  ShardMap map;
  map.app = app;
  map.version = version;
  map.entries.resize(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    ShardMapEntry& entry = map.entries[static_cast<size_t>(s)];
    entry.shard = ShardId(s);
    for (int r = 0; r < replicas; ++r) {
      ShardMapReplica replica;
      replica.server = ServerId((s + r * 7919) % servers);
      replica.role = r == 0 ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
      replica.region = RegionId(replica.server.value % regions);
      entry.replicas.push_back(replica);
    }
  }
  return map;
}

struct BenchResult {
  double events_per_sec = 0.0;
  long long events_executed = 0;
  double publishes_per_sec = 0.0;
  long long publishes = 0;
  double routed_requests_per_sec = 0.0;
  double allocs_per_pick = 0.0;
  double route_end_to_end_per_sec = 0.0;
  long long route_ok = 0;
  double allocs_per_route = 0.0;
};

// 1. Event-loop throughput: 64 interleaved chains of tiny callbacks, each firing re-schedules.
void BenchEvents(double scale, BenchResult* out) {
  Simulator sim;
  const int kChains = 64;
  const long long kTotal = static_cast<long long>(2000000 * scale);
  long long fired = 0;
  std::function<void()> tick = [&]() {
    if (++fired < kTotal) {
      sim.Schedule(1, [&]() { tick(); });
    }
  };
  for (int c = 0; c < kChains; ++c) {
    sim.Schedule(1, [&]() { tick(); });
  }
  double t0 = NowSeconds();
  sim.RunAll();
  double dt = NowSeconds() - t0;
  out->events_executed = static_cast<long long>(sim.ExecutedEvents());
  out->events_per_sec = static_cast<double>(sim.ExecutedEvents()) / dt;
}

// 2. Dissemination: 32 apps x 32 subscribers x 512-shard maps. Subscribers do what the router
// does — retain the delivered (shared) map.
void BenchDissemination(double scale, BenchResult* out) {
  Simulator sim;
  ServiceDiscovery discovery(&sim, Millis(1), Millis(5), 99);
  const int kApps = 32;
  const int kSubscribers = 32;
  const int kShards = 512;
  const int kVersions = static_cast<int>(50 * scale) > 0 ? static_cast<int>(50 * scale) : 1;
  std::vector<std::shared_ptr<const ShardMap>> retained(
      static_cast<size_t>(kApps) * kSubscribers);
  for (int a = 0; a < kApps; ++a) {
    for (int s = 0; s < kSubscribers; ++s) {
      std::shared_ptr<const ShardMap>* slot = &retained[static_cast<size_t>(a) * kSubscribers + s];
      discovery.Subscribe(AppId(a),
                          [slot](const std::shared_ptr<const ShardMap>& map) { *slot = map; });
    }
  }
  double t0 = NowSeconds();
  for (int v = 1; v <= kVersions; ++v) {
    for (int a = 0; a < kApps; ++a) {
      discovery.Publish(MakeMap(AppId(a), v, kShards, 3, 3, 48));
    }
    sim.RunFor(Millis(20));
  }
  sim.RunAll();
  double dt = NowSeconds() - t0;
  out->publishes = discovery.publishes();
  out->publishes_per_sec = static_cast<double>(discovery.publishes()) / dt;
}

// 3 + 4. Router: cached target selection throughput (with allocation accounting), then
// end-to-end Route over loopback servers.
void BenchRouting(double scale, BenchResult* out) {
  Simulator sim;
  Network net(&sim, LatencyModel(3, Millis(1), Millis(40)), 5);
  ServiceDiscovery discovery(&sim, Millis(1), Millis(2), 7);
  ServerRegistry registry;
  const int kServers = 48;
  const int kShards = 4096;
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
      MakeUniformAppSpec(AppId(1), "bench", kShards, ReplicationStrategy::kSecondaryOnly, 3);
  ServiceRouter router(&sim, &net, &discovery, &registry, &spec, RegionId(0), RouterConfig{},
                       11);
  discovery.Publish(MakeMap(AppId(1), 1, kShards, 3, 3, kServers));
  sim.RunFor(Seconds(1));

  const long long kPicks = static_cast<long long>(2000000 * scale);
  Request request;
  request.app = AppId(1);
  request.type = RequestType::kRead;
  request.client_region = RegionId(0);
  long long allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  double t0 = NowSeconds();
  uint64_t sink = 0;
  for (long long i = 0; i < kPicks; ++i) {
    request.shard = ShardId(static_cast<int32_t>(i & (kShards - 1)));
    sink += static_cast<uint64_t>(router.PickTargetForBench(request, 1, ServerId()).value);
  }
  double dt = NowSeconds() - t0;
  long long allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  out->routed_requests_per_sec = static_cast<double>(kPicks) / dt;
  out->allocs_per_pick = static_cast<double>(allocs) / static_cast<double>(kPicks);
  if (sink == 0) {
    std::fprintf(stderr, "unexpected: all picks invalid\n");
  }

  long long ok = 0;
  long long issued = 0;
  long long wave_end = 0;
  std::function<void()> pump = [&]() {
    for (int b = 0; b < 200 && issued < wave_end; ++b, ++issued) {
      router.Route(static_cast<uint64_t>(issued) * 2654435761ULL, RequestType::kRead,
                   [&](const RequestOutcome& outcome) { ok += outcome.success ? 1 : 0; });
    }
    if (issued < wave_end) {
      sim.Schedule(Millis(1), [&]() { pump(); });
    }
  };
  // Routes `count` more requests, 200 per simulated millisecond, and drains the simulator.
  auto route_wave = [&](long long count) {
    wave_end = issued + count;
    pump();
    sim.RunAll();
  };
  // Warm-up over 200 simulated ms (beyond the 80 ms cross-region round trip): the call pools,
  // event slab and heap reach their steady-state capacity, so allocs_per_route counts what a
  // steady-state round trip allocates, as RouterFastPath.RouteRoundTripAllocationBudget does.
  route_wave(40000);
  ok = 0;
  const long long kRoutes = static_cast<long long>(200000 * scale);
  double t1 = NowSeconds();
  const long long route_allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  route_wave(kRoutes);
  double dt1 = NowSeconds() - t1;
  out->allocs_per_route =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) - route_allocs_before) /
      static_cast<double>(kRoutes);
  out->route_ok = ok;
  out->route_end_to_end_per_sec = static_cast<double>(kRoutes) / dt1;
}

// 5. Delta dissemination: a 100k-shard map (the acceptance scenario) published to router
// subscribers under steady rebalancing — every version rewrites a small set of rows, the way
// a drain/failover publish does. Delta is the only publish mode, so the snapshot side is
// measured through forced gaps: before each measured version an intermediate version is
// published and dropped for every subscriber (SetDeliveryFilter), and the measured version then
// reaches each router as a gap-recovery snapshot that rebuilds its whole ranked cache. The delta
// side publishes the same measured versions with nothing dropped, so every one arrives as a
// delta and is patched. Map construction and the dropped publishes happen outside the timed
// window (map construction models the orchestrator's BuildMap, identical on both sides); the
// timed window is publish -> diff -> delivery -> cache apply.
struct DeltaModeStats {
  long long entries_shipped = 0;
  double apply_us_per_publish = 0.0;
  long long cache_rebuilds = 0;
  long long cache_patches = 0;
  long long delta_deliveries = 0;
  long long snapshot_fallbacks = 0;
  std::string subscriber_maps;  // concatenated serializations, for cross-side identity
};

struct DeltaResult {
  int shards = 0;
  int publishes = 0;
  int touched_per_publish = 0;
  int subscribers = 0;
  DeltaModeStats snapshot;
  DeltaModeStats delta;
  double entries_reduction_x = 0.0;
  double apply_reduction_x = 0.0;
  bool maps_identical = false;
};

DeltaModeStats RunDeltaMode(bool delta_on, int shards, int versions, int touched,
                            int subscribers) {
  Simulator sim;
  Network net(&sim, LatencyModel(3, Millis(1), Millis(40)), 5);
  ServiceDiscovery discovery(&sim, Millis(1), Millis(2), 7);
  ServerRegistry registry;
  const int kServers = 64;
  AppSpec spec =
      MakeUniformAppSpec(AppId(1), "delta", shards, ReplicationStrategy::kSecondaryOnly, 3);
  // Measured versions are odd; the even versions in between exist only on the snapshot side,
  // where every delivery of them is lost.
  discovery.SetDeliveryFilter([](int64_t, int64_t version) { return version % 2 == 1; });
  std::vector<std::unique_ptr<ServiceRouter>> routers;
  for (int i = 0; i < subscribers; ++i) {
    routers.push_back(std::make_unique<ServiceRouter>(&sim, &net, &discovery, &registry, &spec,
                                                      RegionId(i % 3), RouterConfig{},
                                                      static_cast<uint64_t>(1000 + i)));
  }

  ShardMap map = MakeMap(AppId(1), 1, shards, 3, 3, kServers);
  discovery.Publish(map);  // initial snapshot, outside the steady-state measurement
  sim.RunAll();

  long long entries_before =
      discovery.delta_entries_shipped() + discovery.snapshot_entries_shipped();
  double apply_wall = 0.0;
  for (int v = 0; v < versions; ++v) {
    ++map.version;
    if (!delta_on) {
      discovery.Publish(map);  // lost for every subscriber: the next version finds a gap
      sim.RunAll();
    }
    ++map.version;
    // Steady rebalancing: rewrite `touched` rows (rotate their replicas to other servers).
    for (int i = 0; i < touched; ++i) {
      ShardMapEntry& entry =
          map.entries[static_cast<size_t>((map.version * 8191 + i * 131) % shards)];
      for (ShardMapReplica& replica : entry.replicas) {
        replica.server = ServerId((replica.server.value + 1) % kServers);
        replica.region = RegionId(replica.server.value % 3);
      }
    }
    auto shared = std::make_shared<const ShardMap>(map);
    double t0 = NowSeconds();
    discovery.Publish(std::move(shared));
    sim.RunAll();  // deliveries + cache applies drain here
    apply_wall += NowSeconds() - t0;
  }

  DeltaModeStats stats;
  stats.entries_shipped = discovery.delta_entries_shipped() +
                          discovery.snapshot_entries_shipped() - entries_before;
  stats.apply_us_per_publish = apply_wall * 1e6 / versions;
  stats.delta_deliveries = discovery.delta_deliveries();
  stats.snapshot_fallbacks = discovery.snapshot_fallbacks();
  for (const auto& router : routers) {
    stats.cache_rebuilds += router->cache_rebuilds();
    stats.cache_patches += router->cache_patches();
    stats.subscriber_maps += SerializeShardMap(*router->map());
  }
  return stats;
}

DeltaResult BenchDelta(double scale) {
  DeltaResult result;
  result.shards = 100000;
  result.publishes = static_cast<int>(48 * scale) > 0 ? static_cast<int>(48 * scale) : 2;
  result.touched_per_publish = 64;
  result.subscribers = 4;
  result.snapshot = RunDeltaMode(false, result.shards, result.publishes,
                                 result.touched_per_publish, result.subscribers);
  result.delta = RunDeltaMode(true, result.shards, result.publishes,
                              result.touched_per_publish, result.subscribers);
  result.maps_identical = result.snapshot.subscriber_maps == result.delta.subscriber_maps;
  if (result.delta.entries_shipped > 0) {
    result.entries_reduction_x = static_cast<double>(result.snapshot.entries_shipped) /
                                 static_cast<double>(result.delta.entries_shipped);
  }
  if (result.delta.apply_us_per_publish > 0) {
    result.apply_reduction_x =
        result.snapshot.apply_us_per_publish / result.delta.apply_us_per_publish;
  }
  return result;
}

void WriteDeltaJson(const DeltaResult& r, double scale) {
  bench::BenchJson json("delta", scale);
  json.Measure("shards", r.shards);
  json.Measure("publishes", r.publishes);
  json.Measure("touched_per_publish", r.touched_per_publish);
  json.Measure("subscribers", r.subscribers);
  for (const auto& [side, stats] :
       {std::pair{"snapshot", &r.snapshot}, std::pair{"delta", &r.delta}}) {
    const std::string prefix = std::string(side) + "/";
    json.Measure(prefix + "entries_shipped", stats->entries_shipped);
    json.Measure(prefix + "apply_us_per_publish", stats->apply_us_per_publish);
    json.Measure(prefix + "cache_rebuilds", stats->cache_rebuilds);
    json.Measure(prefix + "cache_patches", stats->cache_patches);
    json.Measure(prefix + "delta_deliveries", stats->delta_deliveries);
    json.Measure(prefix + "snapshot_fallbacks", stats->snapshot_fallbacks);
  }
  json.Measure("entries_reduction_x", r.entries_reduction_x);
  json.Measure("apply_reduction_x", r.apply_reduction_x);
  json.MeasureFlag("maps_identical", r.maps_identical);
  // The entries factor is scale-independent and has a 5x acceptance floor; the apply factor
  // amortises the one-time owned-map materialisation over the publish count, so it compares
  // only at equal scale.
  json.Gate({.metric = "entries_reduction_x", .tolerance = bench::kBenchTolerance, .bound = "5"});
  json.Gate({.metric = "apply_reduction_x", .tolerance = bench::kBenchTolerance,
             .same_scale = true});
  json.Require("maps_identical");
  json.Write();
}

void WriteJson(const BenchResult& r, double scale) {
  bench::BenchJson json("dataplane", scale);
  json.Measure("events_per_sec", r.events_per_sec);
  json.Measure("events_executed", r.events_executed);
  json.Measure("publishes_per_sec", r.publishes_per_sec);
  json.Measure("publishes", r.publishes);
  json.Measure("routed_requests_per_sec", r.routed_requests_per_sec);
  json.Measure("allocs_per_pick", r.allocs_per_pick);
  json.Measure("route_end_to_end_per_sec", r.route_end_to_end_per_sec);
  json.Measure("route_ok", r.route_ok);
  json.Measure("allocs_per_route", r.allocs_per_route);
  for (const char* rate : {"events_per_sec", "publishes_per_sec", "routed_requests_per_sec",
                           "route_end_to_end_per_sec"}) {
    json.Gate({.metric = rate, .tolerance = bench::kBenchTolerance});
  }
  // The pick fast path and a routed round trip allocate nothing (RouterFastPath tests).
  json.Gate({.metric = "allocs_per_pick", .direction = "lower", .bound = "0", .hard = true});
  json.Gate({.metric = "allocs_per_route", .direction = "lower", .bound = "0", .hard = true});
  json.Write();
}

int Run() {
  double scale = bench::BenchScale();
  BenchResult result;
  BenchEvents(scale, &result);
  BenchDissemination(scale, &result);
  BenchRouting(scale, &result);

  WriteJson(result, scale);

  DeltaResult delta = BenchDelta(scale);
  WriteDeltaJson(delta, scale);
  if (!delta.maps_identical) {
    // The equivalence contract is the whole point of delta dissemination; a divergence here is
    // a bug, not a perf regression — fail the run loudly.
    std::fprintf(stderr, "FATAL: delta-patched subscriber maps diverged from snapshot-fed ones\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace shardman

int main() { return shardman::Run(); }
