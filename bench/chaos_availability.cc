// Chaos availability curve: client-observed request success rate and tail latency as a
// function of fault intensity (mean fault interarrival), produced by the seeded FaultInjector
// against a three-region primary-secondary deployment. Client traffic is a 40 rps open-loop
// Poisson source; every number about it comes from the source's SLO recorder.
//
// Each intensity level runs the identical testbed + source with only the chaos clock changed;
// level 0 injects no faults (the availability ceiling). Output ends with a single-line JSON
// document for plotting/CI ingestion.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/fault_injector.h"
#include "src/chaos/invariant_checker.h"
#include "src/obs/obs.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

using namespace shardman;
using namespace shardman::bench;

namespace {

struct CurvePoint {
  double mean_fault_interval_s = 0.0;  // 0 = no faults
  SloAccount clients;                  // the whole run
  double worst_p99_ms = 0.0;           // over 10 s intervals
  int64_t faults = 0;
  int64_t violations = 0;
};

CurvePoint RunLevel(double mean_fault_interval_s, TimeMicros churn) {
  // Fresh telemetry window per level; a cleared tracer restarts trace ids from 1, so the
  // exported trace of any level is deterministic for the fixed seeds.
  obs::DefaultMetrics().ResetValues();
  obs::DefaultTracer().Clear();
  TestbedConfig config;
  // Sharded-sim knobs (DESIGN.md §13): default single-shard keeps output byte-identical to
  // the historical runs; SM_SIM_SHARDS/SM_SIM_THREADS opt into the partitioned event loop.
  config.sim_shards = SimShardsFromEnv();
  config.sim_threads = SimThreadsFromEnv();
  config.regions = {"r0", "r1", "r2"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "chaosbench", 30,
                                  ReplicationStrategy::kPrimarySecondary, 3);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_unavailable_per_shard = 1;
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(20);
  config.mini_sm.orchestrator.failover_grace = Seconds(8);
  config.seed = 404;
  Testbed bed(config);
  bed.Start();
  SM_CHECK(bed.RunUntilAllReady(Minutes(5)));
  bed.sharded_sim().RunFor(Minutes(1));

  RequestSourceConfig traffic;
  traffic.requests_per_second = 40;
  traffic.interval = Seconds(10);
  traffic.seed = 405;
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();

  InvariantChecker checker(&bed);
  checker.Start();

  CurvePoint point;
  point.mean_fault_interval_s = mean_fault_interval_s;
  if (mean_fault_interval_s > 0.0) {
    ChaosConfig chaos;
    chaos.mean_fault_interval = static_cast<TimeMicros>(mean_fault_interval_s * 1e6);
    chaos.min_duration = Seconds(5);
    chaos.max_duration = Seconds(20);
    chaos.seed = 406;
    FaultInjector injector(&bed, chaos, &checker);
    injector.Start();
    bed.sharded_sim().RunFor(churn);
    injector.Stop();
    bed.sharded_sim().RunFor(Minutes(2));  // active faults heal before measurement closes
  } else {
    bed.sharded_sim().RunFor(churn + Minutes(2));
  }
  checker.Stop();
  SM_CHECK(source.Drain(Minutes(1)));

  // Fault and violation counts come from the telemetry registry; the component accessors
  // (injector.faults_injected() etc.) remain for tests and must agree by construction.
  obs::MetricsSnapshot snapshot = obs::DefaultMetrics().Snapshot();
  point.faults = snapshot.CounterValue("sm.chaos.faults_injected");
  point.violations = snapshot.CounterValue("sm.chaos.invariant_violations");
  point.clients = source.totals();
  for (const SloAccount& interval : source.recorder().series()) {
    point.worst_p99_ms = std::max(point.worst_p99_ms, interval.PercentileMs(0.99));
  }
  return point;
}

}  // namespace

int main() {
  PrintHeader("Chaos availability curve",
              "request success rate and worst-interval p99 vs fault intensity (mean fault "
              "interarrival), seeded FaultInjector over a 3-region deployment");

  double scale = BenchScale();
  TimeMicros churn = std::max(Minutes(1), static_cast<TimeMicros>(Minutes(4) * scale));
  const std::vector<double> levels = {0.0, 60.0, 30.0, 15.0, 8.0};

  // SM_TRACE_OUT=<path>: record shard-lifecycle traces and write the final (most intense)
  // level's timeline as Chrome trace_event JSON — load it in chrome://tracing or Perfetto to
  // see each injected fault instant followed by the orchestrator's reaction spans.
  const char* trace_out = std::getenv("SM_TRACE_OUT");
  if (trace_out != nullptr) {
    obs::DefaultTracer().Enable();
  }

  std::vector<CurvePoint> curve;
  TablePrinter table({"mean_fault_interval_s", "success_rate", "worst_p99_ms", "p99.9_ms",
                      "slo_attainment", "requests", "failed", "faults", "violations"});
  for (double level : levels) {
    CurvePoint point = RunLevel(level, churn);
    curve.push_back(point);
    const SloAccount& clients = point.clients;
    table.AddRowValues(level == 0.0 ? std::string("none") : FormatDouble(level, 0),
                       FormatDouble(clients.success_rate(), 4),
                       FormatDouble(point.worst_p99_ms, 1),
                       FormatDouble(clients.PercentileMs(0.999), 1),
                       FormatDouble(clients.slo_attainment(), 4), clients.sent, clients.failed(),
                       point.faults, point.violations);
  }
  table.Print(std::cout);

  std::cout << "\nJSON: {\"experiment\":\"chaos_availability\",\"points\":[";
  for (size_t i = 0; i < curve.size(); ++i) {
    const CurvePoint& p = curve[i];
    const SloAccount& clients = p.clients;
    std::cout << (i > 0 ? "," : "") << "{\"mean_fault_interval_s\":" << p.mean_fault_interval_s
              << ",\"intensity\":"
              << (p.mean_fault_interval_s > 0.0 ? 1.0 / p.mean_fault_interval_s : 0.0)
              << ",\"success_rate\":" << clients.success_rate()
              << ",\"worst_p99_ms\":" << p.worst_p99_ms
              << ",\"p999_ms\":" << clients.PercentileMs(0.999)
              << ",\"slo_attainment\":" << clients.slo_attainment()
              << ",\"requests\":" << clients.sent << ",\"failed\":" << clients.failed()
              << ",\"faults\":" << p.faults << ",\"violations\":" << p.violations << "}";
  }
  std::cout << "]}\n";

  if (trace_out != nullptr) {
    std::ofstream os(trace_out);
    obs::DefaultTracer().WriteChromeTrace(os);
    std::cout << "Chrome trace (last level) written to " << trace_out << "\n";
  }
  // SM_METRICS_OUT=<path>: flat JSONL export of the last level's metrics registry.
  if (const char* metrics_out = std::getenv("SM_METRICS_OUT")) {
    std::ofstream os(metrics_out);
    obs::DefaultMetrics().WriteJsonl(os);
    std::cout << "Metrics JSONL written to " << metrics_out << "\n";
  }
  return 0;
}
