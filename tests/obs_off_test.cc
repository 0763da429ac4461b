// Off-mode telemetry check, compiled with SHARDMAN_OBS_ENABLED=0 (see tests/CMakeLists.txt):
// every SM_COUNTER_* / SM_GAUGE_* / SM_HISTOGRAM_* / SM_TRACE_* / SM_FLIGHT macro
// must expand to a no-op that registers nothing, records nothing, and does not even evaluate
// its arguments, while the registry/tracer/accountant/recorder APIs themselves stay fully
// functional so exporters and benches link and run regardless of the build flavour.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/obs/obs.h"

namespace shardman {
namespace {

static_assert(SHARDMAN_OBS_ENABLED == 0,
              "obs_off_test must be compiled with SHARDMAN_OBS_ENABLED=0");

TEST(ObsOff, MetricMacrosRegisterNothing) {
  ASSERT_EQ(obs::DefaultMetrics().size(), 0u);
  SM_COUNTER_INC("sm.off.counter");
  SM_COUNTER_ADD("sm.off.counter", 5);
  SM_GAUGE_SET("sm.off.gauge", 1.5);
  SM_HISTOGRAM_OBSERVE("sm.off.hist_ms", 2.0);
  EXPECT_EQ(obs::DefaultMetrics().size(), 0u);
  EXPECT_EQ(obs::DefaultMetrics().Snapshot().CounterValue("sm.off.counter"), 0);
}

TEST(ObsOff, TraceMacrosRecordNothingEvenWhenEnabled) {
  obs::Tracer& tracer = obs::DefaultTracer();
  tracer.Clear();
  tracer.Enable();
  obs::TraceId id = tracer.NewTrace();
  SM_TRACE_BEGIN(id, "orchestrator", "op");
  SM_TRACE_INSTANT("chaos", "server_crash");
  SM_TRACE_END(id, "orchestrator", "op");
  EXPECT_TRUE(tracer.events().empty());
  tracer.Disable();
}

TEST(ObsOff, FlightMacroRecordsNothingAndSkipsArgEvaluation) {
  obs::FlightRecorder& recorder = obs::DefaultFlightRecorder();
  recorder.Clear();
  recorder.set_enabled(true);
  int evaluations = 0;
  auto expensive_detail = [&]() {
    ++evaluations;
    return std::string("detail");
  };
  SM_FLIGHT("net", "drop", expensive_detail());
  SM_FLIGHT("chaos", expensive_detail().c_str());
  EXPECT_EQ(evaluations, 0);  // OFF expansion must not evaluate arguments
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_TRUE(recorder.Events("net").empty());
  recorder.set_enabled(false);
}

TEST(ObsOff, AccountantAndRecorderDirectApiStillWork) {
  // The accountant has no macros: the health scorer and the split planner decide from it, so
  // the OFF build records exactly what the ON build does. The recorder, like the registry and
  // tracer, loses only its macro call sites.
  obs::RequestAccountant accountant;
  obs::RequestAccountingOptions options;
  options.stripes = 2;
  accountant.Configure(options);
  int slot = accountant.RegisterApp(AppId(1));
  ASSERT_GE(slot, 0);
  accountant.RecordPick(0, slot, 0);
  accountant.RecordAttempt(0, 3, 0, 1, 2500, obs::AttemptOutcome::kTimeout);
  EXPECT_EQ(accountant.AppRegionTotals(slot, 0).requests, 1u);
  EXPECT_EQ(accountant.ServerTotals(3).timeouts, 1u);
  EXPECT_EQ(accountant.LinkTotals(0, 1).completed, 1u);

  obs::FlightRecorder recorder;
  recorder.set_enabled(true);
  recorder.Record("net", "drop", "r0->r1");
  ASSERT_EQ(recorder.Events("net").size(), 1u);
  std::ostringstream os;
  recorder.WriteJsonl(os, "test");
  EXPECT_NE(os.str().find("\"flight_dump\""), std::string::npos);
  EXPECT_NE(os.str().find("\"component\":\"net\""), std::string::npos);
}

TEST(ObsOff, DirectApiStillWorks) {
  // The macros are the only thing the OFF build removes; explicit calls keep working so the
  // bench exporters behave identically in both flavours.
  obs::MetricsRegistry registry;
  registry.GetCounter("sm.off.direct")->Add(3);
  EXPECT_EQ(registry.Snapshot().CounterValue("sm.off.direct"), 3);
  std::ostringstream jsonl;
  registry.WriteJsonl(jsonl);
  EXPECT_NE(jsonl.str().find("\"sm.off.direct\""), std::string::npos);

  obs::Tracer tracer;
  tracer.Enable();
  obs::TraceId id = tracer.NewTrace();
  tracer.Begin(id, "cat", "span", obs::Arg("k", int64_t{1}));
  tracer.End(id, "cat", "span");
  ASSERT_EQ(tracer.events().size(), 2u);
  std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
}

}  // namespace
}  // namespace shardman
