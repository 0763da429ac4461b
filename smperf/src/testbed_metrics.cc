// Outcome and per-layer counters shared by the two workloads that run the full stack on a
// Testbed (hotspot_flash, rolling_upgrade).

#include <memory>
#include <string>

#include "smperf/src/common.h"
#include "src/common/rng.h"
#include "src/discovery/shard_map.h"
#include "src/obs/metrics.h"
#include "src/workload/testbed.h"

namespace smperf {

using namespace shardman;

namespace {

// A successor of `map` with its first shard split in two: the shape of one structural publish.
ShardMap OneSplitSuccessor(const ShardMap& map) {
  ShardMap next = map;
  next.version = map.version + 1;
  ShardMapEntry& parent = next.entries.front();
  ShardMapEntry child = parent;
  child.shard = ShardId(static_cast<int32_t>(next.entries.size()));
  const uint64_t mid = parent.range.begin + (parent.range.end - parent.range.begin) / 2;
  child.range.begin = mid;
  parent.range.end = mid;
  next.entries.push_back(child);
  return next;
}

}  // namespace

void AddRequestMetrics(RequestRecorder& recorder, Report& report) {
  auto& exact = report.exact;
  const double sent = static_cast<double>(recorder.measured_sent());
  exact["requests"] = sent;
  exact["routing.requests"] = sent;
  exact["success_rate"] = static_cast<double>(recorder.measured_ok()) / sent;
  exact["slo_attainment"] = static_cast<double>(recorder.measured_within_slo()) / sent;
  exact["latency_p50_ms"] = recorder.PercentileMs(0.5);
  exact["latency_p999_ms"] = recorder.PercentileMs(0.999);
  exact["latency_samples"] = static_cast<double>(recorder.measured_ok());
  for (const auto& [status, count] : recorder.failures()) {
    exact["routing.failed." + status] = static_cast<double>(count);
  }
  report.Expect("requests.sent_equals_ok_plus_failed",
                recorder.sent() == recorder.ok() + recorder.failed(),
                "sent=" + std::to_string(recorder.sent()) + " ok=" + std::to_string(recorder.ok()) +
                    " failed=" + std::to_string(recorder.failed()));
}

void AddStackMetrics(Testbed& bed, const obs::MetricsSnapshot& delta, Report& report) {
  auto& exact = report.exact;
  auto counter = [&delta](const char* name) {
    return static_cast<double>(delta.CounterValue(name));
  };
  exact["routing.cache_rebuilds"] = counter("sm.router.cache_rebuilds");
  exact["routing.cache_patches"] = counter("sm.router.cache_patches");

  int64_t served = 0, shed = 0, forwarded = 0, rejected = 0;
  for (ServerId id : bed.servers()) {
    const ShardHostBase* host = bed.app_server(id);
    served += host->served_requests();
    shed += host->shed();
    forwarded += host->forwarded_requests();
    rejected += host->rejected_requests();
  }
  exact["apps.served"] = static_cast<double>(served);
  exact["apps.shed"] = static_cast<double>(shed);
  exact["apps.forwarded"] = static_cast<double>(forwarded);
  exact["apps.rejected"] = static_cast<double>(rejected);

  exact["discovery.publishes"] = counter("sm.discovery.publishes");
  exact["discovery.delta_entries"] = counter("sm.discovery.delta_entries");
  exact["discovery.snapshot_fallbacks"] = counter("sm.discovery.snapshot_fallbacks");

  const double started = counter("sm.orchestrator.ops_started");
  exact["core.ops_started"] = started;
  exact["core.ops_failed"] = counter("sm.orchestrator.ops_failed");
  exact["core.ops_retried"] = counter("sm.orchestrator.ops_retried");
  exact["core.op_success_ratio"] =
      started > 0 ? counter("sm.orchestrator.ops_completed") / started : 0.0;
  exact["core.map_publishes"] = counter("sm.orchestrator.map_publishes");
  exact["core.migrations_graceful"] = counter("sm.orchestrator.migrations_graceful");
  exact["core.migrations_abrupt"] = counter("sm.orchestrator.migrations_abrupt");
  exact["core.splits"] = static_cast<double>(bed.orchestrator().splits());
  exact["core.merges"] = static_cast<double>(bed.orchestrator().merges());

  int64_t restarts = 0;
  for (int r = 0; r < bed.num_regions(); ++r) {
    restarts += bed.cluster_manager(RegionId(r)).planned_restarts();
  }
  exact["cluster.planned_restarts"] = static_cast<double>(restarts);
  exact["cluster.approvals"] = counter("sm.taskcontrol.approvals");
  exact["cluster.deferrals"] = counter("sm.taskcontrol.deferrals");
  const obs::MetricSample* approval = delta.Find("sm.taskcontrol.approval_delay_ms");
  exact["cluster.approval_delay_ms_p50"] = approval != nullptr ? approval->p50 : 0.0;
  exact["allocator.solves"] = counter("sm.solver.solves");
  exact["solver.evaluations"] = counter("sm.solver.evaluations");
  // Wall time the solver reports for its own solves (the allocator runs inside RunFor).
  const obs::MetricSample* solve = delta.Find("sm.solver.wall_ms");
  report.timing["solver.solve_ms"] = solve != nullptr ? solve->hist_sum : 0.0;
}

void AddPostRunProbes(Testbed& bed, ServiceRouter& router, uint64_t seed, Report& report) {
  // The router's pick alone, over the final map, for keys across the keyspace.
  Request request;
  request.app = bed.spec().id;
  request.type = RequestType::kRead;
  constexpr int kPicks = 200000;
  Rng rng(seed);
  int valid = 0;
  const int64_t pick_start = WallNs();
  for (int i = 0; i < kPicks; ++i) {
    request.key = rng.Next();
    request.shard = router.ResolveShard(request.key);
    valid += router.PickTargetForBench(request, 1, ServerId()).valid() ? 1 : 0;
  }
  report.timing["routing.pick_ns"] =
      static_cast<double>(WallNs() - pick_start) / static_cast<double>(kPicks);
  report.Expect("probe.final_map_routes_every_key", valid == kPicks,
                std::to_string(kPicks - valid) + " keys without a target");

  // Dissemination: diff and apply the final map against a one-split successor.
  std::shared_ptr<const ShardMap> map = bed.discovery().CurrentShared(bed.spec().id);
  const ShardMap successor = OneSplitSuccessor(*map);
  constexpr int kRounds = 200;
  int64_t diff_ns = 0;
  int64_t apply_ns = 0;
  bool round_trips = true;
  for (int i = 0; i < kRounds; ++i) {
    int64_t t0 = WallNs();
    const ShardMapDelta delta = DiffShardMaps(*map, successor);
    diff_ns += WallNs() - t0;
    ShardMap patched = *map;
    t0 = WallNs();
    round_trips &= ApplyShardMapDelta(delta, &patched);
    apply_ns += WallNs() - t0;
    if (i == 0) {
      round_trips &= SerializeShardMap(patched) == SerializeShardMap(successor);
    }
  }
  report.Expect("probe.delta_round_trips", round_trips);
  report.timing["discovery.diff_us"] = static_cast<double>(diff_ns) / kRounds / 1e3;
  report.timing["discovery.apply_us"] = static_cast<double>(apply_ns) / kRounds / 1e3;
}

}  // namespace smperf
