// Determinism regression for the hotspot economy (DESIGN.md §13/§15): the flash-crowd
// scenario — open-loop Zipf traffic, finite-capacity servers, the adaptive split/merge loop —
// must produce a byte-identical state digest (FNV-1a over the final shard set, SLO counters
// and router map versions) across sim worker threads {1, 2, 8} and across repeated same-seed
// runs. This is the test the TSan CI lane runs (`ctest -L sim`); the full-size version is the
// bench's gate mode (bench/hotspot_slo with SM_SIM_THREADS, diffed via SM_METRICS_OUT dumps).
// The file also pins the SLO accounting rule the digest and the bench report rest on.

#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"
#include "src/workload/hotspot_sim.h"

namespace shardman {
namespace {

HotspotSimConfig SmallFlashConfig(int threads) {
  HotspotSimConfig config;
  config.regions = 2;
  config.servers_per_region = 4;
  config.initial_shards = 6;
  config.max_shards = 32;
  config.traffic.requests_per_second = 250.0;
  config.server_service_rate = 400.0;
  config.traffic.zipf_s = 1.2;
  config.traffic.flash_zipf_s = 0.9;
  config.traffic.flash_peak = 4.0;
  config.traffic.flash_start = Seconds(6);
  config.traffic.flash_rise = Seconds(2);
  config.traffic.flash_hold = Seconds(10);
  config.traffic.flash_fall = Seconds(3);
  config.measure_grace = Seconds(4);
  config.planner.window = Millis(500);
  config.planner.hot_requests_per_window = 120;
  config.planner.hot_p99_ms = 150.0;
  config.planner.cold_requests_per_window = 10;
  config.planner.cooldown_windows = 1;
  config.planner.max_shards = config.max_shards;
  config.sim_shards = 4;
  config.sim_threads = threads;
  config.seed = 2024;
  return config;
}

struct FlashRun {
  uint64_t digest = 0;
  std::string report;
  HotspotTotals totals;
};

FlashRun RunFlash(int threads) {
  HotspotSim sim(SmallFlashConfig(threads));
  sim.Run(Seconds(26));
  FlashRun run;
  run.digest = sim.StateDigest();
  run.report = sim.DigestReport();
  run.totals = sim.Totals();
  return run;
}

TEST(HotspotDeterminism, DigestIdenticalAcrossThreadCountsAndRepeats) {
  const FlashRun reference = RunFlash(1);
  ASSERT_GT(reference.totals.run.sent, 0u);
  // The scenario must actually exercise the adaptive loop, or the digest covers nothing.
  EXPECT_GT(reference.totals.splits, 0);

  const FlashRun repeat = RunFlash(1);
  EXPECT_EQ(repeat.digest, reference.digest) << "same-seed repeat diverged";
  EXPECT_EQ(repeat.report, reference.report);

  for (int threads : {2, 8}) {
    const FlashRun run = RunFlash(threads);
    EXPECT_EQ(run.digest, reference.digest) << "threads=" << threads << " diverged";
    EXPECT_EQ(run.report, reference.report)
        << "threads=" << threads << "\n--- reference ---\n"
        << reference.report << "--- run ---\n"
        << run.report;
  }
}

TEST(HotspotDeterminism, DifferentSeedsDiverge) {
  const FlashRun a = RunFlash(1);
  HotspotSimConfig other = SmallFlashConfig(1);
  other.seed = 2025;
  HotspotSim sim(other);
  sim.Run(Seconds(26));
  EXPECT_NE(sim.StateDigest(), a.digest);
}

// SLO accounting: a failure is counted by its reason and is never a latency sample, so mixing
// failures into a slice leaves its success-only percentiles exactly as they were.
TEST(HotspotSlo, FailuresAreCountedByReasonNotBookedAsLatency) {
  constexpr double kSloMs = 100.0;
  constexpr int kSuccesses = 5000;
  constexpr int kFailures = 300;
  SloAccount mixed;
  SloAccount alone;
  Rng rng(5);
  for (int i = 0; i < kSuccesses; ++i) {
    RequestOutcome ok;
    ok.success = true;
    ok.latency = Millis(1) + rng.UniformInt(0, Millis(200));
    mixed.Record(ok, kSloMs);
    alone.Record(ok, kSloMs);
  }
  const StatusCode reasons[] = {StatusCode::kResourceExhausted, StatusCode::kDeadlineExceeded,
                                StatusCode::kUnavailable};
  for (int i = 0; i < kFailures; ++i) {
    RequestOutcome failure;
    failure.status = Status(reasons[i % 3], "injected");
    failure.latency = Seconds(200);  // a failure's wall time must not reach the percentiles
    mixed.Record(failure, kSloMs);
  }

  EXPECT_EQ(mixed.PercentileMs(0.999), alone.PercentileMs(0.999));
  EXPECT_EQ(mixed.PercentileMs(0.99), alone.PercentileMs(0.99));
  EXPECT_EQ(mixed.mean_ms(), alone.mean_ms());
  EXPECT_LT(mixed.PercentileMs(0.999), 250.0);
  EXPECT_EQ(mixed.ok, static_cast<uint64_t>(kSuccesses));
  EXPECT_EQ(mixed.failed(), static_cast<uint64_t>(kFailures));
  uint64_t by_reason = 0;
  for (int code = 0; code < kStatusCodeCount; ++code) {
    by_reason += mixed.failures.count(static_cast<StatusCode>(code));
  }
  EXPECT_EQ(by_reason, static_cast<uint64_t>(kFailures));
  EXPECT_EQ(mixed.failures.count(StatusCode::kResourceExhausted), 100u);
  EXPECT_EQ(mixed.slo_violations, alone.slo_violations + kFailures);
  EXPECT_DOUBLE_EQ(mixed.failure_rate(),
                   static_cast<double>(kFailures) / (kSuccesses + kFailures));
}

}  // namespace
}  // namespace shardman
