// Observability overhead + gray-failure detection bench (ISSUE 7 acceptance).
//
// Part 1 — pick overhead: the ServiceRouter target-selection fast path, measured with the RED
// accountant detached vs attached. The contract: full per-request telemetry costs <= 5% of
// pick throughput and stays allocation-free (0 allocs/pick, counted binary-wide as in
// micro_dataplane). Several alternating reps, best rate each side, to shave scheduler noise.
//
// Part 2 — gray-failure detection curve: a 3-region, equal-latency deployment with one router
// driving steady reads; at a known sim time the r0->r1 link degrades (loss x latency
// multiplier, three intensities). Reported per intensity:
//   detect_ms           sim time from fault injection to the scorer's first replica_gray flag;
//   p99_demoted_ms      request p99 over the fault window with router demotion on;
//   p99_detect_off_ms   same seed/workload with demotion off (detection still running);
//   improvement_x       the ratio — the measurable win from closing the detection loop.
// Everything in part 2 rides the sim clock, so the curve is deterministic per seed; the bench
// exits nonzero if detection misses an intensity, picks allocate, or demotion fails to improve
// p99 at the highest intensity.
//
// Writes BENCH_obs_overhead.json into the working directory (shared schema, DESIGN.md §16).
// SM_BENCH_SCALE shrinks the wall-clock-bound part 1; part 2 is sim-time and stays full size.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/app_spec.h"
#include "src/core/server_registry.h"
#include "src/discovery/service_discovery.h"
#include "src/obs/request_accounting.h"
#include "src/routing/gray_health.h"
#include "src/routing/service_router.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

// Binary-wide allocation counter (same caveat as micro_dataplane: incompatible with ASan's
// interception, so compiled out under sanitizers and allocs_per_pick reads 0 there).
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

// ---------------------------------------------------------------------------------------------
// Part 1: pick-path overhead, telemetry off vs on.
// ---------------------------------------------------------------------------------------------

struct PickResult {
  double pick_off_per_sec = 0.0;
  double pick_on_per_sec = 0.0;
  double pick_overhead_pct = 0.0;
  double allocs_per_pick = 0.0;
  long long picks_per_rep = 0;
  size_t accountant_footprint_bytes = 0;  // every cell plane of the attached accountant
};

PickResult BenchPickOverhead(double scale) {
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

  obs::RequestAccountant accountant;
  obs::RequestAccountingOptions options;
  options.regions = 3;
  options.max_servers = kServers;
  accountant.Configure(options);

  PickResult result;
  result.accountant_footprint_bytes = accountant.FootprintBytes();
  const long long kPicks = std::max<long long>(100000, static_cast<long long>(2000000 * scale));
  result.picks_per_rep = kPicks;
  Request request;
  request.app = AppId(1);
  request.type = RequestType::kRead;
  request.client_region = RegionId(0);

  // Shards stride pseudo-randomly (multiplicative hash), matching what Route()'s key hashing
  // produces in practice — a sequential stride would hand the prefetcher an unrealistically
  // cheap baseline pick and overstate the relative accounting cost.
  auto run_picks = [&]() {
    uint64_t sink = 0;
    double t0 = NowSeconds();
    for (long long i = 0; i < kPicks; ++i) {
      request.shard =
          ShardId(static_cast<int32_t>((static_cast<uint64_t>(i) * 2654435761ULL >> 16) &
                                       (kShards - 1)));
      sink += static_cast<uint64_t>(router.PickTargetForBench(request, 1, ServerId()).value);
    }
    double dt = NowSeconds() - t0;
    if (sink == 0) {
      std::fprintf(stderr, "unexpected: all picks invalid\n");
    }
    return static_cast<double>(kPicks) / dt;
  };

  // Alternate off/on reps and keep the best of each: the fastest rep is the least-preempted
  // one, and alternating keeps thermal/clock drift from biasing one side. The per-pick delta
  // being measured is ~1 cycle, so the rep count errs high to let both bests converge.
  const int kReps = 9;
  double best_off = 0.0;
  double best_on = 0.0;
  long long allocs_on = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    router.SetAccounting(nullptr, 0);
    best_off = std::max(best_off, run_picks());
    router.SetAccounting(&accountant, 0);
    long long allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    best_on = std::max(best_on, run_picks());
    allocs_on += g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  }
  router.SetAccounting(nullptr, 0);
  result.pick_off_per_sec = best_off;
  result.pick_on_per_sec = best_on;
  result.pick_overhead_pct = best_on > 0.0 ? (best_off / best_on - 1.0) * 100.0 : 0.0;
  result.allocs_per_pick =
      static_cast<double>(allocs_on) / static_cast<double>(kPicks * kReps);
  return result;
}

// ---------------------------------------------------------------------------------------------
// Part 2: gray-failure detection latency + demotion p99 improvement, per intensity.
// ---------------------------------------------------------------------------------------------

struct GrayIntensity {
  double latency_multiplier;
  double loss;
};

struct GrayRunStats {
  double detect_ms = -1.0;  // -1 = never detected
  double p99_ms = 0.0;      // request p99 over the fault window
  long long fault_window_requests = 0;
  int flagged_replicas = 0;
};

// Scorer thresholds for the bench deployment (5ms equal inter-region latency, 200ms request
// timeout, ~21 req/s per server): 1s windows so detection resolves to ~seconds, floors low
// enough that the sampled loss rates register, silent clears longer than the fault.
GrayHealthConfig BenchHealthConfig() {
  GrayHealthConfig config;
  config.window = Seconds(1);
  config.min_attempts = 8;
  config.timeout_ratio_factor = 3.0;
  config.timeout_ratio_floor = 0.02;
  config.p99_inflation_factor = 2.0;
  config.p99_floor_ms = 1.0;
  config.flag_after_windows = 2;
  config.clear_after_windows = 3;
  config.silent_clear_windows = 120;
  return config;
}

GrayRunStats RunGrayScenario(const GrayIntensity& intensity, bool demote) {
  Simulator sim;
  // Equal 5ms latency everywhere: every replica sits in the router's first preference tier, so
  // reads spread across all three regions and the r0->r1 link carries ~1/3 of the traffic.
  Network net(&sim, LatencyModel(3, Millis(5), Millis(5)), 21);
  ServiceDiscovery discovery(&sim, Millis(1), Millis(2), 7);
  ServerRegistry registry;
  const int kServers = 24;
  const int kShards = 512;
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
      MakeUniformAppSpec(AppId(1), "gray", kShards, ReplicationStrategy::kSecondaryOnly, 3);

  obs::RequestAccountant accountant;
  obs::RequestAccountingOptions options;
  options.regions = 3;
  options.max_servers = kServers;
  accountant.Configure(options);

  GrayHealthScorer scorer(&sim, &accountant, BenchHealthConfig());
  scorer.Start();

  RouterConfig router_config;
  router_config.request_timeout = Millis(200);
  ServiceRouter router(&sim, &net, &discovery, &registry, &spec, RegionId(0), router_config,
                       11);
  router.SetAccounting(&accountant, 0);
  if (demote) {
    router.SetDemotionView(scorer.gray_flags(), scorer.gray_flags_size());
  }
  discovery.Publish(MakeMap(AppId(1), 1, kShards, 3, 3, kServers));

  constexpr TimeMicros kFaultStart = Seconds(30);
  constexpr TimeMicros kRunEnd = Seconds(120);
  std::vector<double> fault_window_latencies_ms;
  fault_window_latencies_ms.reserve(50000);

  // Steady reads: one request every 2ms (~500 rps). Keys stride by the 64-bit golden ratio so
  // they cover the full key space (AppSpec ranges partition [0, 2^64)) and hence every shard.
  // The same seed drives the demote-on and demote-off runs, so the workloads are identical.
  uint64_t next_key = 0;
  sim.SchedulePeriodic(Millis(2), Millis(2), [&]() {
    uint64_t key = next_key++ * 0x9E3779B97F4A7C15ULL;
    router.Route(key, RequestType::kRead, [&, sent_at = sim.Now()](const RequestOutcome& o) {
      if (sent_at >= kFaultStart) {
        fault_window_latencies_ms.push_back(ToMillis(o.latency));
      }
    });
  });

  sim.RunUntil(kFaultStart);
  LinkQuality quality;
  quality.loss_probability = intensity.loss;
  quality.duplicate_probability = 0.0;
  quality.latency_multiplier = intensity.latency_multiplier;
  net.SetLinkQuality(RegionId(0), RegionId(1), quality);
  sim.RunUntil(kRunEnd);

  GrayRunStats stats;
  for (const HealthEvent& event : scorer.events()) {
    if (event.kind == HealthEventKind::kReplicaGray && event.time >= kFaultStart) {
      if (stats.detect_ms < 0.0) {
        stats.detect_ms = ToMillis(event.time - kFaultStart);
      }
      ++stats.flagged_replicas;
    }
  }
  stats.fault_window_requests = static_cast<long long>(fault_window_latencies_ms.size());
  if (!fault_window_latencies_ms.empty()) {
    std::sort(fault_window_latencies_ms.begin(), fault_window_latencies_ms.end());
    size_t idx = static_cast<size_t>(0.99 * static_cast<double>(
                                                fault_window_latencies_ms.size() - 1));
    stats.p99_ms = fault_window_latencies_ms[idx];
  }
  return stats;
}

struct GrayPoint {
  GrayIntensity intensity;
  GrayRunStats demoted;
  GrayRunStats detect_off;
  double improvement_x = 0.0;
};

// ---------------------------------------------------------------------------------------------

void WriteJson(const PickResult& pick, const std::vector<GrayPoint>& curve, bool detected_all,
               double scale) {
  bench::BenchJson json("obs_overhead", scale);
  json.Measure("pick_off_per_sec", pick.pick_off_per_sec);
  json.Measure("pick_on_per_sec", pick.pick_on_per_sec);
  json.Measure("pick_overhead_pct", pick.pick_overhead_pct);
  json.Measure("allocs_per_pick", pick.allocs_per_pick);
  json.Measure("red_cell_bytes", sizeof(obs::RedCell));
  json.Measure("accountant_footprint_bytes", pick.accountant_footprint_bytes);
  json.MeasureFlag("detected_all", detected_all);
  json.Gate({.metric = "pick_overhead_pct", .direction = "lower", .bound = "5"});
  json.Gate({.metric = "allocs_per_pick", .direction = "lower", .bound = "0", .hard = true});
  json.Require("detected_all");
  for (const GrayPoint& point : curve) {
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "latency_multiplier=%g,loss=%g/",
                  point.intensity.latency_multiplier, point.intensity.loss);
    const std::string key = prefix;
    json.Measure(key + "detect_ms", point.demoted.detect_ms);
    json.Measure(key + "flagged_replicas", point.demoted.flagged_replicas);
    json.Measure(key + "p99_demoted_ms", point.demoted.p99_ms);
    json.Measure(key + "p99_detect_off_ms", point.detect_off.p99_ms);
    json.Measure(key + "improvement_x", point.improvement_x);
    json.Gate({.metric = key + "detect_ms", .direction = "lower",
               .tolerance = bench::kBenchTolerance});
    json.Gate({.metric = key + "improvement_x", .bound = "1"});
  }
  json.Write();
}

int Run() {
  double scale = bench::BenchScale();
  PickResult pick = BenchPickOverhead(scale);

  const std::vector<GrayIntensity> intensities = {
      {2.0, 0.05},
      {4.0, 0.10},
      {8.0, 0.20},
  };
  std::vector<GrayPoint> curve;
  bool detected_all = true;
  for (const GrayIntensity& intensity : intensities) {
    GrayPoint point;
    point.intensity = intensity;
    point.demoted = RunGrayScenario(intensity, /*demote=*/true);
    point.detect_off = RunGrayScenario(intensity, /*demote=*/false);
    if (point.demoted.p99_ms > 0.0) {
      point.improvement_x = point.detect_off.p99_ms / point.demoted.p99_ms;
    }
    detected_all = detected_all && point.demoted.detect_ms >= 0.0 &&
                   point.detect_off.detect_ms >= 0.0;
    curve.push_back(point);
  }

  WriteJson(pick, curve, detected_all, scale);

  // Hard gates — all deterministic (sim-time or exact counts), so safe to fail CI on:
  int failures = 0;
  if (pick.allocs_per_pick > 0.0) {
    std::fprintf(stderr, "FATAL: instrumented pick path allocates (%.4f allocs/pick)\n",
                 pick.allocs_per_pick);
    ++failures;
  }
  if (!detected_all) {
    std::fprintf(stderr, "FATAL: gray failure went undetected at some intensity\n");
    ++failures;
  }
  if (!curve.empty() && curve.back().improvement_x < 1.2) {
    std::fprintf(stderr,
                 "FATAL: demotion does not improve p99 at max intensity (%.2fx, need 1.2x)\n",
                 curve.back().improvement_x);
    ++failures;
  }
  // The <=5% overhead target is wall-clock and advisory here (a gate in the JSON).
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace shardman

int main() { return shardman::Run(); }
