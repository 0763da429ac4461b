// Tests for the workload module: load generators, the population model, the request source and
// its SLO recorder, and the shard scaler end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/core/control_plane.h"
#include "src/workload/load_gen.h"
#include "src/workload/population.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {
namespace {

TEST(LoadGenTest, ShardLoadScalarsHaveRequestedSpreadAndMeanOne) {
  Rng rng(4);
  std::vector<double> loads = SampleShardLoadScalars(5000, 20.0, rng);
  double sum = 0.0;
  double min = loads[0];
  double max = loads[0];
  for (double load : loads) {
    sum += load;
    min = std::min(min, load);
    max = std::max(max, load);
  }
  EXPECT_NEAR(sum / static_cast<double>(loads.size()), 1.0, 1e-9);
  EXPECT_GT(max / min, 10.0);
  EXPECT_LT(max / min, 25.0);
}

TEST(LoadGenTest, CapacitiesWithinVariation) {
  Rng rng(4);
  std::vector<double> caps = SampleCapacities(1000, 100.0, 0.2, rng);
  for (double cap : caps) {
    EXPECT_GE(cap, 80.0);
    EXPECT_LE(cap, 120.0);
  }
}

TEST(LoadGenTest, DiurnalFactorPeaksAndTroughs) {
  // Peak at 20:00, trough 12 hours away; values bounded by [trough, 1].
  double peak = DiurnalFactor(Hours(20), 0.4);
  double trough = DiurnalFactor(Hours(8), 0.4);
  EXPECT_NEAR(peak, 1.0, 1e-9);
  EXPECT_NEAR(trough, 0.4, 1e-9);
  for (int h = 0; h < 48; ++h) {
    double f = DiurnalFactor(Hours(h), 0.4);
    EXPECT_GE(f, 0.4 - 1e-9);
    EXPECT_LE(f, 1.0 + 1e-9);
  }
  // 24h periodicity.
  EXPECT_NEAR(DiurnalFactor(Hours(5), 0.4), DiurnalFactor(Hours(29), 0.4), 1e-9);
}

TEST(PopulationTest, AnchorsRoughlyMatchPaper) {
  Rng rng(15);
  PopulationConfig config;
  std::vector<AppDeploymentSample> population = SampleAppPopulation(config, rng);
  ASSERT_EQ(population.size(), static_cast<size_t>(config.num_deployments));
  int64_t largest = 0;
  int64_t ge_1000 = 0;
  int geo = 0;
  for (const AppDeploymentSample& sample : population) {
    largest = std::max(largest, sample.servers);
    if (sample.servers >= 1000) {
      ++ge_1000;
    }
    if (sample.geo_distributed) {
      ++geo;
    }
    EXPECT_GE(sample.servers, config.min_servers);
    EXPECT_LE(sample.servers, config.max_servers);
    EXPECT_GE(sample.shards, 1);
  }
  EXPECT_EQ(largest, config.max_servers);  // pinned anchor
  double pct_large = 100.0 * static_cast<double>(ge_1000) / population.size();
  EXPECT_GT(pct_large, 8.0);
  EXPECT_LT(pct_large, 25.0);  // paper: 14%
  double pct_geo = 100.0 * geo / population.size();
  EXPECT_GT(pct_geo, 25.0);
  EXPECT_LT(pct_geo, 42.0);  // paper: 33%
}

TEST(RequestSourceTest, AggregatesIntervalsAndCounts) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 3;
  config.app = MakeUniformAppSpec(AppId(1), "probe", 6, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  Testbed bed(config);
  bed.Start();

  RequestSourceConfig traffic;
  traffic.requests_per_second = 50;
  traffic.interval = Seconds(5);
  RequestSource source(&bed, RegionId(0), traffic);
  source.Start();
  // Requests due before the router's first map wait for it, and count as sent.
  uint64_t sent_before_map = 0;
  while (source.router().map() == nullptr && bed.sim().Now() < Minutes(2)) {
    sent_before_map = source.totals().sent;
    bed.sim().RunFor(Millis(10));
  }
  ASSERT_NE(source.router().map(), nullptr);
  EXPECT_GT(sent_before_map, 0u);
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  bed.sim().RunFor(Seconds(21));
  ASSERT_TRUE(source.Drain(Minutes(1)));

  const SloAccount& totals = source.totals();
  EXPECT_GT(totals.sent, 1000u);
  EXPECT_EQ(totals.sent, source.generated());
  EXPECT_EQ(totals.sent, totals.ok + totals.failed());
  EXPECT_EQ(totals.failed(), 0u);
  EXPECT_GT(totals.mean_ms(), 0.0);
  // The series partitions the run by due time.
  const std::vector<SloAccount>& series = source.recorder().series();
  EXPECT_GE(series.size(), 4u);
  SloAccount summed;
  for (const SloAccount& interval : series) {
    EXPECT_GT(interval.sent, 0u);
    summed.Merge(interval);
  }
  EXPECT_EQ(summed.sent, totals.sent);
  EXPECT_EQ(summed.ok, totals.ok);
  EXPECT_EQ(summed.failed(), totals.failed());
  EXPECT_EQ(summed.latency_sum_us, totals.latency_sum_us);
}

TEST(RequestSourceTest, SeedDrawsArrivalTimes) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 3;
  config.app = MakeUniformAppSpec(AppId(1), "seeds", 6, ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));

  // Per-50ms arrival counts: equal for equal seeds, different for different seeds.
  RequestSourceConfig traffic;
  traffic.requests_per_second = 100;
  traffic.interval = Millis(50);
  std::vector<std::unique_ptr<RequestSource>> sources;
  for (uint64_t seed : {7, 7, 8}) {
    traffic.seed = seed;
    sources.push_back(std::make_unique<RequestSource>(&bed, RegionId(0), traffic));
    sources.back()->Start();
  }
  bed.sim().RunFor(Seconds(10));
  auto arrivals = [](const RequestSource& source) {
    std::vector<uint64_t> counts;
    for (const SloAccount& interval : source.recorder().series()) {
      counts.push_back(interval.sent);
    }
    return counts;
  };
  EXPECT_EQ(arrivals(*sources[0]), arrivals(*sources[1]));
  EXPECT_NE(arrivals(*sources[0]), arrivals(*sources[2]));
}

TEST(SloRecorderTest, BooksEachRequestByItsDueTime) {
  SloRecorder recorder(/*slo_ms=*/100.0, /*interval=*/Seconds(5));
  recorder.set_origin(Seconds(1));
  const int hold = recorder.AddSlice(Seconds(4), Seconds(8));
  RequestOutcome slow;
  slow.success = true;
  slow.latency = Seconds(3);  // finishes two intervals after it was due
  RequestOutcome fast;
  fast.success = true;
  fast.latency = Millis(2);
  RequestOutcome shed;
  shed.status = Status(StatusCode::kResourceExhausted, "shed");

  recorder.Sent(Seconds(5.5));
  recorder.Record(Seconds(5.5), slow);
  recorder.Sent(Seconds(6));
  recorder.Record(Seconds(6), fast);
  recorder.Sent(Seconds(12));
  recorder.Record(Seconds(12), shed);

  const std::vector<SloAccount>& series = recorder.series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].sent, 1u);  // due at 5.5 s, in [1 s, 6 s)
  EXPECT_EQ(series[0].ok, 1u);
  EXPECT_EQ(series[0].slo_violations, 1u);
  EXPECT_EQ(series[1].sent, 1u);  // due at 6 s, in [6 s, 11 s)
  EXPECT_EQ(series[1].slo_violations, 0u);
  EXPECT_EQ(series[2].failures.count(StatusCode::kResourceExhausted), 1u);
  EXPECT_EQ(series[2].ok, 0u);

  EXPECT_EQ(recorder.slice(hold).sent, 2u);  // 5.5 s and 6 s
  EXPECT_EQ(recorder.total().sent, 3u);
  EXPECT_EQ(recorder.total().finished(), 3u);
  EXPECT_DOUBLE_EQ(recorder.total().slo_attainment(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(recorder.total().success_rate(), 2.0 / 3.0);
}

TEST(ShardScalerTest, ScalesUpHotShardsAndDownColdOnes) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 8;
  config.app = MakeUniformAppSpec(AppId(1), "scaled", 8,
                                  ReplicationStrategy::kPrimarySecondary, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  // Shard 0 is hot (per-replica load above the high watermark), the rest are cold but above
  // the low watermark.
  config.shard_load_scalars = {90.0, 30.0, 30.0, 30.0, 30.0, 30.0, 30.0, 30.0};
  config.server_capacity = ResourceVector{200.0};
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  bed.sim().RunFor(Seconds(15));  // a load poll must run before the scaler sees loads

  ShardScalerConfig scaler_config;
  scaler_config.high_watermark = 60.0;
  scaler_config.low_watermark = 5.0;
  scaler_config.min_replicas = 2;
  scaler_config.max_replicas = 4;
  ShardScaler scaler(&bed.sim(), &bed.orchestrator(), scaler_config);

  int actions = scaler.RunOnce();
  EXPECT_EQ(actions, 1);
  EXPECT_EQ(scaler.scale_ups(), 1);
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  EXPECT_EQ(bed.orchestrator().ReplicaCount(ShardId(0)), 3);
  EXPECT_EQ(bed.orchestrator().ReplicaCount(ShardId(1)), 2);

  // Cool the hot shard down below the low watermark: the scaler removes the extra replica.
  for (ServerId id : bed.servers()) {
    bed.app_server(id)->SetShardBaseLoad(ShardId(0), ResourceVector{1.0});
  }
  bed.sim().RunFor(Seconds(15));  // next load poll picks up the new loads
  scaler.RunOnce();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(3)));
  EXPECT_EQ(scaler.scale_downs(), 1);
  EXPECT_EQ(bed.orchestrator().ReplicaCount(ShardId(0)), 2);
}

TEST(TestbedTest, SecondaryOnlyAppsAcceptWritesAnywhere) {
  TestbedConfig config;
  config.regions = {"r0"};
  config.servers_per_region = 3;
  config.app = MakeUniformAppSpec(AppId(1), "sec", 6, ReplicationStrategy::kSecondaryOnly, 2);
  config.app.placement.metrics = MetricSet({"cpu"});
  Testbed bed(config);
  bed.Start();
  ASSERT_TRUE(bed.RunUntilAllReady(Minutes(2)));
  auto router = bed.CreateRouter(RegionId(0));
  bed.sim().RunFor(Seconds(2));
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    router->Route(static_cast<uint64_t>(i) * 131, RequestType::kWrite, i,
                  [&](const RequestOutcome& outcome) { ok += outcome.success ? 1 : 0; });
    bed.sim().RunFor(Millis(50));
  }
  bed.sim().RunFor(Seconds(2));
  EXPECT_EQ(ok, 10);
}

}  // namespace
}  // namespace shardman
