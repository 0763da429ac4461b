// Control-plane telemetry tests: metrics registry semantics (find-or-create, reset, snapshot,
// delta, JSONL export), tracer mechanics and Chrome trace_event JSON shape, byte-identical
// trace determinism across same-seed chaos runs, and the equivalence between the component
// accessors and the registry counters the bench binaries report from.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/chaos/invariant_checker.h"
#include "src/obs/obs.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::HistogramMetric;
using obs::MetricKind;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceId;
using obs::Tracer;

// -- MetricsRegistry ---------------------------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("sm.test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(registry.GetCounter("sm.test.counter"), c);
  c->Add(3);
  c->Add(4);
  EXPECT_EQ(c->value(), 7);

  Gauge* g = registry.GetGauge("sm.test.gauge");
  EXPECT_EQ(registry.GetGauge("sm.test.gauge"), g);
  g->Set(2.5);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);

  HistogramMetric* h = registry.GetHistogram("sm.test.hist_ms");
  EXPECT_EQ(registry.GetHistogram("sm.test.hist_ms"), h);
  h->Observe(10.0);
  h->Observe(-1.0);  // clamped to 0, never dropped
  EXPECT_EQ(h->histogram().count(), 2);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistryDeathTest, KindMismatchFails) {
  MetricsRegistry registry;
  registry.GetCounter("sm.test.metric");
  EXPECT_DEATH(registry.GetGauge("sm.test.metric"), "");
  EXPECT_DEATH(registry.GetHistogram("sm.test.metric"), "");
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrationsAndPointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("sm.test.counter");
  Gauge* g = registry.GetGauge("sm.test.gauge");
  HistogramMetric* h = registry.GetHistogram("sm.test.hist_ms");
  c->Add(5);
  g->Set(1.0);
  h->Observe(2.0);

  registry.ResetValues();
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.GetCounter("sm.test.counter"), c);  // cached pointers stay valid
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->histogram().count(), 0);
}

TEST(MetricsRegistry, SnapshotIsSortedAndQueryable) {
  MetricsRegistry registry;
  registry.GetCounter("sm.z.last")->Add(9);
  registry.GetCounter("sm.a.first")->Add(1);
  registry.GetGauge("sm.m.gauge")->Set(4.5);
  HistogramMetric* h = registry.GetHistogram("sm.m.hist_ms");
  for (int i = 1; i <= 100; ++i) {
    h->Observe(static_cast<double>(i));
  }

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.samples.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      snapshot.samples.begin(), snapshot.samples.end(),
      [](const obs::MetricSample& a, const obs::MetricSample& b) { return a.name < b.name; }));

  EXPECT_EQ(snapshot.CounterValue("sm.a.first"), 1);
  EXPECT_EQ(snapshot.CounterValue("sm.z.last"), 9);
  EXPECT_EQ(snapshot.CounterValue("sm.never.registered"), 0);  // absent == never incremented
  EXPECT_DOUBLE_EQ(snapshot.GaugeValue("sm.m.gauge"), 4.5);

  const obs::MetricSample* hist = snapshot.Find("sm.m.hist_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, MetricKind::kHistogram);
  EXPECT_EQ(hist->hist_count, 100);
  EXPECT_DOUBLE_EQ(hist->hist_sum, 5050.0);
  // Buckets give estimates, not exact order statistics: within 6.25% of the value.
  EXPECT_NEAR(hist->p50, 50.0, 50.0 * 0.0625);
  EXPECT_GE(hist->p99, hist->p50);
  EXPECT_EQ(snapshot.Find("sm.never.registered"), nullptr);
}

TEST(MetricsRegistry, DeltaSubtractsCountersAndKeepsAfterGauges) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("sm.test.counter");
  Gauge* g = registry.GetGauge("sm.test.gauge");
  HistogramMetric* h = registry.GetHistogram("sm.test.hist_ms");
  c->Add(10);
  g->Set(1.0);
  h->Observe(5.0);
  MetricsSnapshot before = registry.Snapshot();

  c->Add(7);
  g->Set(9.0);
  h->Observe(6.0);
  h->Observe(7.0);
  registry.GetCounter("sm.test.new_counter")->Add(2);  // registered after `before`
  MetricsSnapshot after = registry.Snapshot();

  MetricsSnapshot delta = MetricsRegistry::Delta(before, after);
  EXPECT_EQ(delta.CounterValue("sm.test.counter"), 7);
  EXPECT_EQ(delta.CounterValue("sm.test.new_counter"), 2);  // absent-in-before counts from zero
  EXPECT_DOUBLE_EQ(delta.GaugeValue("sm.test.gauge"), 9.0);
  const obs::MetricSample* hist = delta.Find("sm.test.hist_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist_count, 2);
  EXPECT_DOUBLE_EQ(hist->hist_sum, 13.0);
}

TEST(MetricsRegistry, DeltaPercentilesCoverOnlyTheWindow) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram("sm.test.hist_ms");
  for (int i = 0; i < 100; ++i) {
    h->Observe(1.0);
  }
  MetricsSnapshot before = registry.Snapshot();
  for (int i = 0; i < 100; ++i) {
    h->Observe(100.0);
  }
  MetricsSnapshot after = registry.Snapshot();
  EXPECT_NEAR(after.Find("sm.test.hist_ms")->p50, 1.0, 0.0625);  // cumulative: half at 1 ms

  const MetricsSnapshot delta = MetricsRegistry::Delta(before, after);
  const obs::MetricSample* window = delta.Find("sm.test.hist_ms");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->hist_count, 100);
  EXPECT_DOUBLE_EQ(window->hist_sum, 10000.0);
  EXPECT_NEAR(window->p50, 100.0, 6.25);
  EXPECT_NEAR(window->p99, 100.0, 6.25);
}

TEST(MetricsRegistry, WriteJsonlOneObjectPerLine) {
  MetricsRegistry registry;
  registry.GetCounter("sm.test.counter")->Add(3);
  registry.GetGauge("sm.test.gauge")->Set(1.5);
  registry.GetHistogram("sm.test.hist_ms")->Observe(2.0);

  std::ostringstream os;
  registry.WriteJsonl(os);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\":"), std::string::npos);
    EXPECT_NE(line.find("\"kind\":"), std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"sm.test.counter\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"value\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"count\":1"), std::string::npos);
}

TEST(MetricsMacros, WriteToDefaultRegistry) {
  obs::DefaultMetrics().ResetValues();
  SM_COUNTER_INC("sm.test.macro_counter");
  SM_COUNTER_ADD("sm.test.macro_counter", 4);
  SM_GAUGE_SET("sm.test.macro_gauge", 7.5);
  SM_HISTOGRAM_OBSERVE("sm.test.macro_hist_ms", 3.0);

  MetricsSnapshot snapshot = obs::DefaultMetrics().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("sm.test.macro_counter"), 5);
  EXPECT_DOUBLE_EQ(snapshot.GaugeValue("sm.test.macro_gauge"), 7.5);
  const obs::MetricSample* hist = snapshot.Find("sm.test.macro_hist_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist_count, 1);
}

// -- Tracer ------------------------------------------------------------------------------------

TEST(Tracer, NewTraceIsSequentialAndClearResets) {
  Tracer tracer;
  EXPECT_EQ(tracer.NewTrace().value, 1u);
  EXPECT_EQ(tracer.NewTrace().value, 2u);
  EXPECT_EQ(tracer.NewTrace().value, 3u);  // works while disabled
  tracer.Clear();
  EXPECT_EQ(tracer.NewTrace().value, 1u);
  EXPECT_FALSE(TraceId{}.valid());
  EXPECT_TRUE(tracer.NewTrace().valid());
}

TEST(Tracer, RecordsOnlyWhileEnabled) {
  Tracer tracer;
  tracer.Begin(tracer.NewTrace(), "cat", "ignored");
  EXPECT_TRUE(tracer.events().empty());

  tracer.Enable();
  TraceId id = tracer.NewTrace();
  tracer.Begin(id, "orchestrator", "op", obs::Arg("shard", int64_t{7}));
  tracer.Instant("chaos", "server_crash", obs::Arg("server", std::string("s\"1\"")));
  tracer.End(id, "orchestrator", "op");
  tracer.Disable();
  tracer.Instant("chaos", "ignored");

  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[0].phase, 'b');
  EXPECT_EQ(tracer.events()[0].id, id.value);
  EXPECT_EQ(tracer.events()[0].args_json, "\"shard\":7");
  EXPECT_EQ(tracer.events()[1].phase, 'i');
  EXPECT_EQ(tracer.events()[1].args_json, "\"server\":\"s\\\"1\\\"\"");  // value escaped
  EXPECT_EQ(tracer.events()[2].phase, 'e');
}

TEST(Tracer, ChromeTraceJsonShape) {
  Tracer tracer;
  tracer.Enable();
  TraceId id = tracer.NewTrace();
  tracer.Begin(id, "orchestrator", "op", obs::Arg("shard", int64_t{1}));
  tracer.Instant("chaos", "server_crash");
  tracer.End(id, "orchestrator", "op");

  std::string json = tracer.ChromeTraceJson();
  // Whole-document shape.
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '\n');
  // One thread_name metadata lane per category, in first-use order.
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  size_t orch_lane = json.find("\"name\":\"orchestrator\"");
  size_t chaos_lane = json.find("\"name\":\"chaos\"");
  ASSERT_NE(orch_lane, std::string::npos);
  ASSERT_NE(chaos_lane, std::string::npos);
  EXPECT_LT(orch_lane, chaos_lane);
  // Async span events keyed by the hex TraceId; instants carry global scope.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"g\""), std::string::npos);

  // Balanced braces/brackets — cheap structural validity check for the whole document.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  EXPECT_EQ(os.str(), json);
}

// -- Lifecycle tracing on the testbed ----------------------------------------------------------

TestbedConfig ObsBedConfig(uint64_t seed) {
  TestbedConfig config;
  config.regions = {"r0", "r1", "r2"};
  config.servers_per_region = 5;
  config.app =
      MakeUniformAppSpec(AppId(1), "obs", 24, ReplicationStrategy::kPrimarySecondary, 3);
  config.app.placement.metrics = MetricSet({"cpu"});
  config.app.caps.max_unavailable_per_shard = 1;
  config.mini_sm.orchestrator.periodic_alloc_interval = Seconds(20);
  config.mini_sm.orchestrator.failover_grace = Seconds(8);
  config.seed = seed;
  return config;
}

struct ObsRunResult {
  std::string trace_json;
  std::vector<obs::TraceEvent> events;
  MetricsSnapshot snapshot;
  int64_t orch_graceful = 0;
  int64_t orch_abrupt = 0;
  int64_t orch_moves = 0;
  int64_t injector_faults = 0;
  int64_t probe_sent = 0;
  int64_t probe_succeeded = 0;
  int64_t probe_failed = 0;
};

// One fully instrumented chaos run: fresh metrics window, cleared+enabled tracer, seeded
// faults against the standard 3-region primary-secondary bed.
ObsRunResult RunInstrumentedChaos(uint64_t seed) {
  obs::DefaultMetrics().ResetValues();
  obs::DefaultTracer().Clear();
  obs::DefaultTracer().Enable();

  ObsRunResult result;
  {
    Testbed bed(ObsBedConfig(seed));
    bed.Start();
    EXPECT_TRUE(bed.RunUntilAllReady(Minutes(5)));

    RequestSourceConfig traffic;
    traffic.requests_per_second = 20;
    traffic.seed = seed + 1;
    RequestSource source(&bed, RegionId(0), traffic);
    source.Start();

    ChaosConfig chaos;
    chaos.mean_fault_interval = Seconds(10);
    chaos.min_duration = Seconds(5);
    chaos.max_duration = Seconds(20);
    chaos.seed = seed + 2;
    FaultInjector injector(&bed, chaos);
    injector.Start();
    bed.sim().RunFor(Minutes(2));
    injector.Stop();
    bed.sim().RunFor(Minutes(2));  // faults heal, failovers complete
    source.Stop();

    result.orch_graceful = bed.orchestrator().graceful_migrations();
    result.orch_abrupt = bed.orchestrator().abrupt_migrations();
    result.orch_moves = bed.orchestrator().completed_moves();
    result.injector_faults = injector.faults_injected();
    result.probe_sent = source.totals().sent;
    result.probe_succeeded = source.totals().ok;
    result.probe_failed = source.totals().failed();
  }
  result.trace_json = obs::DefaultTracer().ChromeTraceJson();
  result.events = obs::DefaultTracer().events();
  result.snapshot = obs::DefaultMetrics().Snapshot();
  obs::DefaultTracer().Disable();
  return result;
}

// The determinism contract from trace.h: same seed => byte-identical exported trace. This is
// the `obs`-labelled ctest referenced by DESIGN.md §7.
TEST(TraceDeterminism, SameSeedProducesByteIdenticalChromeTrace) {
  ObsRunResult a = RunInstrumentedChaos(7001);
  ObsRunResult b = RunInstrumentedChaos(7001);
  EXPECT_GT(a.events.size(), 0u);
  EXPECT_GT(a.injector_faults, 0);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  ObsRunResult a = RunInstrumentedChaos(7001);
  ObsRunResult b = RunInstrumentedChaos(7002);
  EXPECT_NE(a.trace_json, b.trace_json);
}

// Acceptance criterion: an injected fault appears as an instant on the chaos lane, and the
// orchestrator's reaction (a failover/migration op span) begins on the same timeline at or
// after it.
TEST(LifecycleTrace, FaultInstantIsFollowedByOrchestratorReaction) {
  ObsRunResult run = RunInstrumentedChaos(7003);
  ASSERT_GT(run.injector_faults, 0);

  TimeMicros first_fault_ts = -1;
  for (const obs::TraceEvent& e : run.events) {
    if (e.category == "chaos" && e.phase == 'i') {
      first_fault_ts = e.ts;
      break;
    }
  }
  ASSERT_GE(first_fault_ts, 0) << "no chaos fault instant recorded";

  bool reaction_after_fault = false;
  for (const obs::TraceEvent& e : run.events) {
    if (e.category == "orchestrator" && e.phase == 'b' && e.ts >= first_fault_ts) {
      reaction_after_fault = true;
      break;
    }
  }
  EXPECT_TRUE(reaction_after_fault)
      << "no orchestrator op span begins after the first fault instant";
}

// Every hop of the fault-reaction chain shows up: allocator decision spans, orchestrator op
// spans with a back-reference to the allocation that created them, server-side and discovery
// instants, and the client-visible map application. (TaskControl negotiation is exercised by
// the upgrade run below — container restarts, not shard moves, are what get negotiated.)
TEST(LifecycleTrace, AllLifecycleStagesAreRecorded) {
  ObsRunResult run = RunInstrumentedChaos(7004);

  auto has = [&](const char* category, char phase) {
    for (const obs::TraceEvent& e : run.events) {
      if (e.phase == phase && e.category == category) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("allocator", 'b'));
  EXPECT_TRUE(has("allocator", 'e'));
  EXPECT_TRUE(has("orchestrator", 'b'));
  EXPECT_TRUE(has("orchestrator", 'e'));
  EXPECT_TRUE(has("smlib", 'i'));
  EXPECT_TRUE(has("discovery", 'i'));
  EXPECT_TRUE(has("router", 'i'));

  // Ops created by an allocation run carry the run's TraceId as a causal back-reference.
  bool op_links_allocation = false;
  for (const obs::TraceEvent& e : run.events) {
    if (e.category == "orchestrator" && e.phase == 'b' &&
        e.args_json.find("\"alloc_trace\":") != std::string::npos) {
      op_links_allocation = true;
      break;
    }
  }
  EXPECT_TRUE(op_links_allocation);
}

// A fig17-style rolling upgrade at small scale: this exercises the TaskController (container
// restarts are what get negotiated) and — unlike the chaos run, whose leader-loss fault
// replaces the orchestrator instance mid-run — keeps one orchestrator alive end to end,
// so its accessors and the global registry must agree exactly.
ObsRunResult RunInstrumentedUpgrade(uint64_t seed) {
  obs::DefaultMetrics().ResetValues();
  obs::DefaultTracer().Clear();
  obs::DefaultTracer().Enable();

  ObsRunResult result;
  {
    TestbedConfig config;
    config.regions = {"r0"};
    config.servers_per_region = 12;
    config.app =
        MakeUniformAppSpec(AppId(1), "obsup", 60, ReplicationStrategy::kPrimaryOnly, 1);
    config.app.placement.metrics = MetricSet({"cpu"});
    config.app.caps.max_concurrent_ops_fraction = 0.25;
    config.app.graceful_migration = true;
    config.app.drain.drain_primaries = true;
    config.seed = seed;
    Testbed bed(config);
    bed.Start();
    EXPECT_TRUE(bed.RunUntilAllReady(Minutes(5)));

    RequestSourceConfig traffic;
    traffic.requests_per_second = 20;
    traffic.seed = seed + 1;
    RequestSource source(&bed, RegionId(0), traffic);
    source.Start();
    bed.sim().RunFor(Seconds(30));

    bed.StartRollingUpgradeEverywhere(/*max_concurrent_per_region=*/3,
                                      /*restart_downtime=*/Seconds(20));
    for (int i = 0; i < 1200 && bed.UpgradeInProgress(); ++i) {
      bed.sim().RunFor(Seconds(1));
    }
    EXPECT_FALSE(bed.UpgradeInProgress());
    bed.sim().RunFor(Seconds(30));  // tail: in-flight ops drain
    EXPECT_TRUE(source.Drain(Minutes(1)));

    result.orch_graceful = bed.orchestrator().graceful_migrations();
    result.orch_abrupt = bed.orchestrator().abrupt_migrations();
    result.orch_moves = bed.orchestrator().completed_moves();
    result.probe_sent = source.totals().sent;
    result.probe_succeeded = source.totals().ok;
    result.probe_failed = source.totals().failed();
  }
  result.trace_json = obs::DefaultTracer().ChromeTraceJson();
  result.events = obs::DefaultTracer().events();
  result.snapshot = obs::DefaultMetrics().Snapshot();
  obs::DefaultTracer().Disable();
  return result;
}

// The container-restart negotiation leg of the lifecycle chain: TaskControl spans open when
// the cluster manager proposes a restart and close at approval, with the wait recorded in the
// approval-delay histogram.
TEST(LifecycleTrace, UpgradeRecordsTaskControlNegotiation) {
  ObsRunResult run = RunInstrumentedUpgrade(8001);

  bool begin = false;
  bool end = false;
  for (const obs::TraceEvent& e : run.events) {
    if (e.category != "taskcontrol") continue;
    if (e.phase == 'b') begin = true;
    if (e.phase == 'e') end = true;
  }
  EXPECT_TRUE(begin);
  EXPECT_TRUE(end);
  EXPECT_GT(run.snapshot.CounterValue("sm.taskcontrol.approvals"), 0);
  const obs::MetricSample* delay = run.snapshot.Find("sm.taskcontrol.approval_delay_ms");
  ASSERT_NE(delay, nullptr);
  EXPECT_EQ(delay->hist_count, run.snapshot.CounterValue("sm.taskcontrol.approvals"));
}

// The benches report from the registry; the component accessors remain the ground truth. Both
// views must agree on the same run (this is what lets fig17/chaos_availability switch their
// reporting source without changing semantics).
TEST(BenchEquivalence, RegistryCountersMatchComponentAccessors) {
  ObsRunResult run = RunInstrumentedUpgrade(8002);

  EXPECT_GT(run.orch_graceful, 0);  // drained primaries move gracefully during the upgrade
  EXPECT_EQ(run.snapshot.CounterValue("sm.orchestrator.migrations_graceful"),
            run.orch_graceful);
  EXPECT_EQ(run.snapshot.CounterValue("sm.orchestrator.migrations_abrupt"), run.orch_abrupt);
  EXPECT_EQ(run.snapshot.CounterValue("sm.orchestrator.moves_completed"), run.orch_moves);
  // The source's router is the bed's only router, so its outcome counters match the source's
  // recorder request for request.
  EXPECT_GT(run.probe_sent, 0);
  EXPECT_EQ(run.probe_sent, run.probe_succeeded + run.probe_failed);
  EXPECT_EQ(run.snapshot.CounterValue("sm.router.requests_ok"), run.probe_succeeded);
  EXPECT_EQ(run.snapshot.CounterValue("sm.router.requests_failed"), run.probe_failed);

  // The op ledger balances: everything started either completed or failed (in-flight ops
  // drained during the post-upgrade tail).
  int64_t started = run.snapshot.CounterValue("sm.orchestrator.ops_started");
  int64_t completed = run.snapshot.CounterValue("sm.orchestrator.ops_completed");
  int64_t failed = run.snapshot.CounterValue("sm.orchestrator.ops_failed");
  EXPECT_GT(started, 0);
  EXPECT_EQ(started, completed + failed);

  // Latency histograms observed real control-plane activity.
  const obs::MetricSample* staleness = run.snapshot.Find("sm.discovery.staleness_ms");
  ASSERT_NE(staleness, nullptr);
  EXPECT_GT(staleness->hist_count, 0);
  const obs::MetricSample* request_lat = run.snapshot.Find("sm.router.request_latency_ms");
  ASSERT_NE(request_lat, nullptr);
  EXPECT_EQ(request_lat->hist_count, run.probe_succeeded);
}

// -- Counter audit (ISSUE 7 satellite): PR 4-6 data-plane counters must move ------------------

// Every counter the delta-dissemination and zero-copy routing work added must actually tick
// under a workload built to reach each code path: delta publishes chaining onto the routers'
// versions, delivery-loss windows forcing version gaps (snapshot fallbacks), and server
// crashes forcing retries and exhausted requests, plus one drain under total delivery loss. A name in this list going to zero means the
// counter regressed into registered-but-never-incremented.
TEST(CounterAudit, DeltaDataPlaneCountersAreExercised) {
  obs::DefaultMetrics().ResetValues();
  {
    TestbedConfig config = ObsBedConfig(9001);
    Testbed bed(config);
    bed.Start();
    ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

    RequestSourceConfig traffic;
    traffic.requests_per_second = 20;
    traffic.seed = 9002;
    RequestSource source(&bed, RegionId(0), traffic);
    source.Start();

    ChaosConfig chaos;
    chaos.mix = {{FaultKind::kServerCrash, 2.0},
                 {FaultKind::kMapDeliveryLoss, 2.0},
                 {FaultKind::kRegionPartition, 2.0},
                 {FaultKind::kLinkDegradation, 1.0}};
    chaos.mean_fault_interval = Seconds(8);
    chaos.min_duration = Seconds(5);
    chaos.max_duration = Seconds(20);
    chaos.seed = 9003;
    FaultInjector injector(&bed, chaos);
    injector.Start();
    bed.sim().RunFor(Minutes(3));
    injector.Stop();
    bed.sim().RunFor(Minutes(1));
    // The probe's router is the only map subscriber, so a random loss window may see no
    // delivery at all. Drain one server under total loss (every publish dropped), then
    // another with delivery restored (the gap heals through a snapshot).
    const std::vector<ServerId> servers = bed.servers();
    bed.discovery().SetDeliveryLoss(1.0, 9004);
    bed.orchestrator().DrainServer(servers[0], true, true, []() {});
    bed.sim().RunFor(Seconds(10));
    bed.discovery().SetDeliveryLoss(0.0, 0);
    bed.orchestrator().DrainServer(servers[1], true, true, []() {});
    bed.sim().RunFor(Seconds(10));
    source.Stop();
  }

  MetricsSnapshot snapshot = obs::DefaultMetrics().Snapshot();
  const char* counters[] = {
      // sm.router.*: request outcomes and the per-version routing cache.
      "sm.router.maps_applied", "sm.router.requests_ok", "sm.router.retries",
      "sm.router.requests_failed", "sm.router.cache_rebuilds", "sm.router.cache_patches",
      // sm.discovery.delta_*: delta publication, delivery, and gap recovery.
      "sm.discovery.publishes", "sm.discovery.deliveries", "sm.discovery.delta_deliveries",
      "sm.discovery.delta_entries", "sm.discovery.dropped_deliveries",
      "sm.discovery.snapshot_fallbacks",
      // sm.smlib.*: server-side library sessions.
      "sm.smlib.connects"};
  for (const char* name : counters) {
    EXPECT_GT(snapshot.CounterValue(name), 0) << name << " never incremented";
  }
  const obs::MetricSample* latency = snapshot.Find("sm.router.request_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->hist_count, 0);
}

// Same audit for the replicated-control-plane counters: a leased-leader bed under leader loss
// and online reconfiguration must tick elections, lease losses, failovers (with the failover
// gap histogram), and membership changes.
TEST(CounterAudit, SmrControlPlaneCountersAreExercised) {
  obs::DefaultMetrics().ResetValues();
  {
    TestbedConfig config = ObsBedConfig(9011);
    config.smr.num_replicas = 3;
    Testbed bed(config);
    bed.Start();
    ASSERT_TRUE(bed.RunUntilAllReady(Minutes(5)));

    ChaosConfig chaos;
    chaos.mix = {{FaultKind::kLeaderLoss, 2.0},
                 {FaultKind::kSmrReconfigure, 2.0},
                 {FaultKind::kLeaderPartition, 1.0}};
    chaos.mean_fault_interval = Seconds(15);
    chaos.min_duration = Seconds(5);
    chaos.max_duration = Seconds(20);
    chaos.seed = 9013;
    FaultInjector injector(&bed, chaos);
    injector.Start();
    bed.sim().RunFor(Minutes(3));
    injector.Stop();
    bed.sim().RunFor(Minutes(2));
  }

  MetricsSnapshot snapshot = obs::DefaultMetrics().Snapshot();
  const char* counters[] = {"sm.smr.leader_elections", "sm.smr.lease_losses",
                            "sm.smr.failovers", "sm.smr.handoffs"};
  for (const char* name : counters) {
    EXPECT_GT(snapshot.CounterValue(name), 0) << name << " never incremented";
  }
  // Reconfiguration membership changes: at least one of add/remove/relocate fired.
  int64_t membership = snapshot.CounterValue("sm.smr.replicas_added") +
                       snapshot.CounterValue("sm.smr.replicas_removed") +
                       snapshot.CounterValue("sm.smr.replicas_relocated");
  EXPECT_GT(membership, 0);
  EXPECT_GE(snapshot.GaugeValue("sm.smr.leadership_epoch"), 2.0);  // >= one failover
  // The failover-gap histogram only observes failovers with a measurable placement gap (a
  // back-to-back re-election records no gap), so it trails the failover count.
  const obs::MetricSample* failover_ms = snapshot.Find("sm.smr.failover_ms");
  ASSERT_NE(failover_ms, nullptr);
  EXPECT_GT(failover_ms->hist_count, 0);
  EXPECT_LE(failover_ms->hist_count, snapshot.CounterValue("sm.smr.failovers"));
}

// -- FlightRecorder ----------------------------------------------------------------------------

TEST(FlightRecorder, StandaloneWriteJsonlCarriesHeaderAndComponent) {
  obs::FlightRecorder recorder;
  recorder.set_enabled(true);
  recorder.Record("net", "drop", "r0->r1");
  ASSERT_EQ(recorder.Events("net").size(), 1u);
  std::ostringstream os;
  recorder.WriteJsonl(os, "test");
  EXPECT_NE(os.str().find("\"flight_dump\""), std::string::npos);
  EXPECT_NE(os.str().find("\"component\":\"net\""), std::string::npos);
}

// -- Flight-recorder dump determinism (ISSUE 7 satellite) --------------------------------------

// One chaos run with the flight recorder live; returns the full JSONL dump. Clear() resets
// rings and the sequence counter, so repeated runs start from identical recorder state.
std::string RunFlightRecorderChaos(uint64_t seed) {
  obs::DefaultFlightRecorder().Clear();
  obs::DefaultFlightRecorder().set_enabled(true);
  {
    Testbed bed(ObsBedConfig(seed));
    bed.Start();
    EXPECT_TRUE(bed.RunUntilAllReady(Minutes(5)));
    ChaosConfig chaos;
    chaos.mean_fault_interval = Seconds(10);
    chaos.min_duration = Seconds(5);
    chaos.max_duration = Seconds(20);
    chaos.seed = seed + 2;
    FaultInjector injector(&bed, chaos);
    injector.Start();
    bed.sim().RunFor(Minutes(2));
    injector.Stop();
    bed.sim().RunFor(Minutes(1));
  }
  std::string dump = obs::DefaultFlightRecorder().DumpJsonl("determinism_test");
  obs::DefaultFlightRecorder().set_enabled(false);
  return dump;
}

// The flight-recorder determinism contract (DESIGN.md §12): the dump is a pure function of
// the seed — ring contents, sequence numbers, timestamps, and serialization all ride the sim
// clock and deterministic event order.
TEST(FlightDumpDeterminism, SameSeedProducesByteIdenticalDump) {
  std::string a = RunFlightRecorderChaos(9101);
  std::string b = RunFlightRecorderChaos(9101);
  EXPECT_NE(a.find("\"flight_dump\""), std::string::npos);
  EXPECT_NE(a.find("\"component\":\"chaos\""), std::string::npos);  // faults were recorded
  EXPECT_EQ(a, b);
}

TEST(FlightDumpDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(RunFlightRecorderChaos(9101), RunFlightRecorderChaos(9102));
}

}  // namespace
}  // namespace shardman
