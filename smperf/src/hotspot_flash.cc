// hotspot_flash: the data-plane workload. BENCH_hotspot's peak point (2 regions x 8 servers
// at 900 rps each, 8 -> <=64 shards, Zipf(1.2) scattered baseline at 800 rps per region, a 6x
// Zipf(0.9) flash crowd inside one shard, adaptive split/merge with a 100 ms SLO, 4 sim shards
// on 2 worker threads), driven from here rather than through HotspotSim::Run so that set-up,
// readiness, warm-up and the measured phase are timed separately and every request outcome is
// recorded by the benchmark.
//
// Traffic is open loop in simulated time: each region's arrival process runs on a spare sim
// shard and sends every request to shard 0 for its due time, one conservative window ahead.

#include <algorithm>
#include <memory>
#include <vector>

#include "smperf/src/common.h"
#include "src/common/rng.h"
#include "src/core/split_merge_planner.h"
#include "src/obs/metrics.h"
#include "src/workload/load_gen.h"
#include "src/workload/testbed.h"

namespace smperf {

using namespace shardman;

namespace {

constexpr uint64_t kKeyspaceEnd = ~0ULL;  // exclusive end of the uniform key ranges

struct Scenario {
  int regions = 2;
  int servers_per_region = 8;
  int initial_shards = 8;
  int max_shards = 64;
  double rps_per_region = 800.0;
  double service_rate = 900.0;
  double zipf_s = 1.2;
  double flash_zipf_s = 0.9;
  double flash_peak = 6.0;
  uint64_t key_population = 1 << 20;
  uint64_t flash_population = 1 << 14;
  // Relative to traffic start: warm-up (set-up), then the measured phase.
  TimeMicros warmup = Seconds(10);
  TimeMicros flash_start = Seconds(12);
  TimeMicros flash_rise = Seconds(4);
  TimeMicros flash_hold = Seconds(48);
  TimeMicros flash_fall = Seconds(6);
  TimeMicros tail = Seconds(16);
  TimeMicros drain = Seconds(5);  // no new arrivals; in-flight requests finish
  TimeMicros traffic_end() const {
    return flash_start + flash_rise + flash_hold + flash_fall + tail;
  }
};

class FlashTraffic {
 public:
  FlashTraffic(const Scenario& scenario, uint64_t seed, int sim_shards)
      : scenario_(scenario), sim_shards_(sim_shards) {
    Rng master(seed ^ 0x534D5045524646ULL);
    for (int r = 0; r < scenario.regions; ++r) {
      rngs_.emplace_back(master.Next());
      next_candidate_.push_back(0);
      generated_.push_back(0);
    }
  }

  void Start(Testbed* bed, std::vector<std::unique_ptr<ServiceRouter>>* routers,
             SplitMergePlanner* planner, RequestRecorder* recorder) {
    bed_ = bed;
    routers_ = routers;
    planner_ = planner;
    recorder_ = recorder;
    ShardedSimulator& ssim = bed_->sharded_sim();
    window_ = std::max<TimeMicros>(ssim.lookahead(), Millis(20));
    start_ = ssim.Now();
    for (int r = 0; r < scenario_.regions; ++r) {
      ssim.Send(FeederShard(r), 0, [this, r]() { GenerateWindow(r); });
    }
  }

  TimeMicros start() const { return start_; }
  uint64_t generated() const {
    uint64_t total = 0;
    for (uint64_t g : generated_) {
      total += g;
    }
    return total;
  }

 private:
  int FeederShard(int region) const { return 1 + region % (sim_shards_ - 1); }

  // Generates arrivals for [now + window, now + 2 * window) on the region's feeder shard by
  // thinning a Poisson stream at the peak rate, and ships each to shard 0 for its due time.
  void GenerateWindow(int region) {
    ScopedSpan span("workload.generate");
    ShardedSimulator& ssim = bed_->sharded_sim();
    Simulator& engine = ssim.shard(FeederShard(region));
    const TimeMicros now = engine.Now();
    if (now >= start_ + scenario_.traffic_end()) {
      return;
    }
    const size_t r = static_cast<size_t>(region);
    Rng& rng = rngs_[r];
    const TimeMicros begin = now + window_;
    const TimeMicros end = begin + window_;
    const double peak_rate = scenario_.rps_per_region * scenario_.flash_peak;
    const double mean_gap_us = 1e6 / peak_rate;
    next_candidate_[r] = std::max(next_candidate_[r], begin);
    while (next_candidate_[r] < end) {
      const TimeMicros at = next_candidate_[r];
      next_candidate_[r] +=
          std::max<TimeMicros>(1, static_cast<TimeMicros>(rng.Exponential(mean_gap_us)));
      if (at >= start_ + scenario_.traffic_end()) {
        break;
      }
      const double factor =
          FlashCrowdFactor(at - start_, scenario_.flash_start, scenario_.flash_rise,
                           scenario_.flash_hold, scenario_.flash_fall, scenario_.flash_peak);
      if (!rng.Bernoulli(factor / scenario_.flash_peak)) {
        continue;
      }
      ZipfKeyConfig keys;
      if (factor > 1.0 && rng.Bernoulli((factor - 1.0) / factor)) {
        keys.population = scenario_.flash_population;
        keys.s = scenario_.flash_zipf_s;
        keys.hot_center = kKeyspaceEnd / 2;
      } else {
        keys.population = scenario_.key_population;
        keys.s = scenario_.zipf_s;
        keys.scatter = true;
      }
      const uint64_t key = SampleZipfKey(rng, keys);
      ++generated_[r];
      ssim.Send(0, at - now, [this, region, key]() { Arrive(region, key); });
    }
    engine.Schedule(window_, [this, region]() { GenerateWindow(region); });
  }

  void Arrive(int region, uint64_t key) {
    planner_->ObserveKey(key);
    recorder_->Send(*(*routers_)[static_cast<size_t>(region)], key, RequestType::kRead,
                     bed_->sim().Now());
  }

  Scenario scenario_;
  int sim_shards_;
  std::vector<Rng> rngs_;
  std::vector<TimeMicros> next_candidate_;
  std::vector<uint64_t> generated_;
  Testbed* bed_ = nullptr;
  std::vector<std::unique_ptr<ServiceRouter>>* routers_ = nullptr;
  SplitMergePlanner* planner_ = nullptr;
  RequestRecorder* recorder_ = nullptr;
  TimeMicros window_ = 0;
  TimeMicros start_ = 0;
};

// True when the active shards' key ranges partition [0, ~0) with no gap or overlap.
bool RangesTileKeyspace(const Orchestrator& orchestrator, std::string* detail) {
  std::vector<KeyRange> ranges;
  for (int s = 0; s < orchestrator.num_shards(); ++s) {
    if (orchestrator.shard_active(ShardId(s))) {
      ranges.push_back(orchestrator.shard_range(ShardId(s)));
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.begin < b.begin; });
  uint64_t expect = 0;
  for (const KeyRange& range : ranges) {
    if (range.begin != expect || range.end <= range.begin) {
      *detail = "gap or overlap at key " + std::to_string(range.begin);
      return false;
    }
    expect = range.end;
  }
  *detail = std::to_string(ranges.size()) + " active shards";
  return expect == kKeyspaceEnd;
}

}  // namespace

void RunHotspotFlash(const Options& options, Report& report) {
  Scenario scenario;
  if (options.small) {
    scenario.flash_hold = Seconds(16);
    scenario.tail = Seconds(4);
  }
  const int sim_shards = 4;

  TestbedConfig tb;
  tb.regions.clear();
  for (int r = 0; r < scenario.regions; ++r) {
    tb.regions.push_back("region" + std::to_string(r));
  }
  tb.servers_per_region = scenario.servers_per_region;
  tb.app = MakeUniformAppSpec(AppId(1), "hotspot", scenario.initial_shards,
                              ReplicationStrategy::kPrimaryOnly, 1);
  tb.app.placement.metrics = MetricSet({"cpu"});
  tb.delta_dissemination = true;
  tb.request_accounting = true;
  tb.accounting_shard_buckets = scenario.max_shards;
  tb.server_service_rate = scenario.service_rate;
  tb.request_rate_cost = 100.0 / scenario.service_rate;
  tb.mini_sm.orchestrator.load_poll_interval = Seconds(2);
  tb.server_queue_limit = Millis(400);
  tb.sim_shards = sim_shards;
  tb.sim_threads = 2;
  tb.seed = options.seed;

  SplitMergePlannerConfig pcfg;
  pcfg.window = Millis(500);
  pcfg.hot_requests_per_window = 250;
  pcfg.hot_p99_ms = 150.0;
  pcfg.cold_requests_per_window = 25;
  pcfg.split_after_windows = 2;
  pcfg.merge_after_windows = 6;
  pcfg.cooldown_windows = 1;
  pcfg.max_shards = scenario.max_shards;

  // ---- set-up: stack build, start, readiness, planner, warm-up traffic ----
  std::unique_ptr<Testbed> bed;
  {
    ScopedSpan span("core.testbed_build");
    bed = std::make_unique<Testbed>(tb);
  }
  {
    ScopedSpan span("core.start");
    bed->Start();
  }
  bool ready = false;
  {
    ScopedSpan span("sim.run_until_ready");
    ready = bed->RunUntilAllReady(Minutes(5));
  }
  report.Expect("hotspot.ready", ready);
  if (!ready) {
    return;
  }
  std::vector<std::unique_ptr<ServiceRouter>> routers;
  for (int r = 0; r < scenario.regions; ++r) {
    routers.push_back(bed->CreateRouter(RegionId(r)));
  }
  const int app_slot = bed->accounting().AppSlot(bed->spec().id);
  SplitMergePlanner planner(&bed->sim(), &bed->orchestrator(), &bed->accounting(), app_slot,
                            pcfg);
  {
    ScopedSpan span("core.planner_start");
    planner.Start();
  }
  RequestRecorder recorder(/*slo_ms=*/100.0);
  FlashTraffic traffic(scenario, options.seed, sim_shards);
  ShardedSimulator& ssim = bed->sharded_sim();
  traffic.Start(bed.get(), &routers, &planner, &recorder);
  recorder.set_measure_from(traffic.start() + scenario.warmup);
  {
    ScopedSpan span("sim.run_for");
    ssim.RunFor(scenario.warmup);
  }

  // ---- measured phase ----
  ssim.set_profiling(options.trace);
  const obs::MetricsSnapshot before = obs::DefaultMetrics().Snapshot();
  const uint64_t events_before = ssim.ExecutedEvents();
  const uint64_t net_before = bed->network().messages_sent();
  const uint64_t cross_before = ssim.cross_shard_messages();
  const uint64_t windows_before = ssim.windows_run();
  const int64_t router_requests_before =
      routers[0]->requests_sent() + routers[1]->requests_sent();
  const int64_t measure_start_ns = WallNs();
  report.timing["setup_s"] = static_cast<double>(measure_start_ns - options.process_start_ns) / 1e9;

  const TimeMicros measure_end = traffic.start() + scenario.traffic_end() + scenario.drain;
  while (ssim.Now() < measure_end) {
    const int64_t step_start_ns = WallNs();
    {
      ScopedSpan span("sim.run_for");
      ssim.RunFor(std::min<TimeMicros>(Seconds(1), measure_end - ssim.Now()));
    }
    report.steps_ms.push_back(static_cast<double>(WallNs() - step_start_ns) / 1e6);
  }

  const int64_t measure_ns = WallNs() - measure_start_ns;
  report.timing["unit_wall_ms"] = static_cast<double>(measure_ns) / 1e6;
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Delta(before, obs::DefaultMetrics().Snapshot());

  // ---- outcomes and checks ----
  report.Expect("hotspot.every_arrival_routed", traffic.generated() == recorder.sent());
  std::string tiling;
  report.Expect("hotspot.ranges_tile_keyspace", RangesTileKeyspace(bed->orchestrator(), &tiling),
                tiling);
  AddRequestMetrics(recorder, report);
  AddStackMetrics(*bed, delta, report);
  auto& exact = report.exact;
  exact["sim_s"] = ToSeconds(scenario.traffic_end() + scenario.drain - scenario.warmup);

  const uint64_t events = ssim.ExecutedEvents() - events_before;
  exact["sim.events"] = static_cast<double>(events);
  exact["sim.net_messages"] = static_cast<double>(bed->network().messages_sent() - net_before);
  exact["sim.cross_shard_msgs"] = static_cast<double>(ssim.cross_shard_messages() - cross_before);
  exact["sim.windows"] = static_cast<double>(ssim.windows_run() - windows_before);
  report.timing["sim.ns_per_event"] = static_cast<double>(measure_ns) / static_cast<double>(events);

  const int64_t attempts =
      routers[0]->requests_sent() + routers[1]->requests_sent() - router_requests_before;
  exact["routing.attempts_per_request"] = static_cast<double>(attempts) / exact["requests"];
  exact["core.planner_ticks"] = static_cast<double>(planner.ticks());
  exact["core.active_shards"] = static_cast<double>(bed->orchestrator().active_shards());

  if (options.trace) {
    int64_t shard0_ns = 0, feeder_ns = 0, barrier_ns = 0;
    for (const WindowProfile& window : ssim.window_profiles()) {
      for (size_t s = 0; s < window.shard_busy_ns.size(); ++s) {
        (s == 0 ? shard0_ns : feeder_ns) += window.shard_busy_ns[s];
      }
      barrier_ns += window.barrier_ns;
    }
    report.timing["sim.shard0_busy_ms"] = static_cast<double>(shard0_ns) / 1e6;
    report.timing["sim.feeder_busy_ms"] = static_cast<double>(feeder_ns) / 1e6;
    report.timing["sim.barrier_ms"] = static_cast<double>(barrier_ns) / 1e6;

    AddPostRunProbes(*bed, *routers[0], options.seed, report);
  }
}

}  // namespace smperf
