// Hotspot economy bench (DESIGN.md §15): open-loop Zipf traffic with a flash crowd aimed at
// one shard, swept over hotspot intensity (the flash-crowd rate multiplier), with the
// adaptive split/merge planner off (static uniform sharding) vs on.
//
// Three phases:
//
//   1. Intensity sweep: for each flash_peak in the sweep, the identical scenario runs with
//      adaptive sharding off and on. Each side reports, over requests sent in the hold
//      window: success-only p99/p99.9 latency, failure rate, goodput (successful requests per
//      simulated second), SLO violations and failures by reason; the adaptive side also
//      reports its shard economy (splits, merges, active shards). A failed request is never a
//      latency sample. The flash crowd's popular keys all land inside one shard, so
//      whole-shard rebalancing cannot help — only splitting can.
//   2. Determinism gate and thread scaling: the peak-intensity adaptive scenario re-runs 5
//      times at each sim_threads in {1, 2, 4, 8}; every full-state digest and line-by-line
//      report must match the sweep's run byte-for-byte. Any divergence prints both reports and
//      exits nonzero. The walls of these runs, of the same scenario on one sim shard, and one
//      profiled run's shard balance and barrier time are the measured parallel-sim curve of
//      the full SM stack on the host that runs the bench.
//   3. Peak comparison: adaptive vs static failure rate and goodput at the highest intensity.
//
// Output: tables on stdout plus BENCH_hotspot.json in the working directory (shared schema,
// DESIGN.md §16). SM_BENCH_SCALE shrinks the flash hold and tail for CI.
//
// Gate mode: with SM_SIM_THREADS set, runs the peak-intensity adaptive scenario once at that
// thread count, prints the digest, and writes SM_METRICS_OUT (flat JSONL metrics including
// the digest gauges). The CI sim-determinism lane runs this at 1/2/3/8 threads and diffs
// the dumps byte-for-byte.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/table.h"
#include "src/obs/metrics.h"
#include "src/workload/hotspot_sim.h"

using namespace shardman;
using namespace shardman::bench;

namespace {

struct ScenarioTimes {
  TimeMicros flash_start = Seconds(12);
  TimeMicros flash_rise = Seconds(4);
  TimeMicros flash_hold = Seconds(48);
  TimeMicros flash_fall = Seconds(6);
  TimeMicros tail = Seconds(16);
  TimeMicros duration() const { return flash_start + flash_rise + flash_hold + flash_fall + tail; }
};

ScenarioTimes MakeTimes(double scale) {
  ScenarioTimes times;
  // The hold must stay well above the planner's reaction budget (a full split cascade to
  // ~16 leaves, one structural op per tick), so scaling clamps at 28s rather than shrinking
  // proportionally all the way down.
  times.flash_hold = std::max<TimeMicros>(Seconds(28), static_cast<TimeMicros>(Seconds(48) * scale));
  times.tail = std::max<TimeMicros>(Seconds(8), static_cast<TimeMicros>(Seconds(16) * scale));
  return times;
}

HotspotSimConfig MakeConfig(double intensity, bool adaptive, int threads,
                            const ScenarioTimes& times) {
  HotspotSimConfig config;
  config.regions = 2;
  config.servers_per_region = 8;
  config.initial_shards = 8;
  config.max_shards = 64;
  // 2 x 800 rps against 16 servers at 900 rps each: ~11% baseline utilization, and the peak
  // sweep point (6x) pushes the fleet to ~67% aggregate — comfortably feasible, but only if
  // the hot range is split across servers: un-split, the whole flash load funnels through the
  // one server owning the flash shard (10x its capacity at peak). Each simulated request
  // stands for a batch of identical user requests, so this is the million-user regime at
  // 1/batch the event cost.
  config.traffic.requests_per_second = 800.0;
  config.server_service_rate = 900.0;
  config.traffic.zipf_s = 1.2;
  // Flash class is flatter (s=0.9): a crowd hits a tight key *range*, not one key. With
  // s=1.2 the single hottest key alone would exceed one server's capacity at peak — an
  // unsolvable placement no amount of splitting could fix.
  config.traffic.flash_zipf_s = 0.9;
  config.traffic.flash_peak = intensity;
  config.traffic.flash_start = times.flash_start;
  config.traffic.flash_rise = times.flash_rise;
  config.traffic.flash_hold = times.flash_hold;
  config.traffic.flash_fall = times.flash_fall;
  config.adaptive = adaptive;
  // 500ms windows: a shard completing above ~500 rps (55% of one server) — or showing
  // queueing in its p99 — is hot; two hot windows trigger a split, and with one structural op
  // per tick the full cascade to ~16 leaves lands inside the measure grace. The p99 threshold
  // must clear the cross-region RTT (2 x 40ms wide hops): a shard whose traffic is merely
  // remote is not hot, only one whose queue is actually growing.
  config.planner.window = Millis(500);
  config.planner.hot_requests_per_window = 250;
  config.planner.hot_p99_ms = 150.0;
  config.planner.cold_requests_per_window = 25;
  config.planner.split_after_windows = 2;
  config.planner.merge_after_windows = 6;
  config.planner.cooldown_windows = 1;
  config.planner.max_shards = config.max_shards;
  config.traffic.slo_ms = 100.0;
  config.measure_grace = Seconds(12);
  config.sim_shards = 4;
  config.sim_threads = threads;
  config.seed = 17;
  return config;
}

struct ScenarioRun {
  HotspotTotals totals;
  uint64_t digest = 0;
  std::string report;
  double wall_ms = 0.0;  // host wall time from construction through teardown
  // Profiled runs only: shard 0's share of the summed shard busy time, and the barrier time.
  double shard0_busy_share = 0.0;
  double barrier_ms = 0.0;
};

ScenarioRun RunScenario(const HotspotSimConfig& config, TimeMicros duration,
                        bool profile = false) {
  const auto start = std::chrono::steady_clock::now();
  ScenarioRun run;
  {
    HotspotSim sim(config);
    ShardedSimulator& ssim = sim.testbed().sharded_sim();
    ssim.set_profiling(profile);
    sim.Run(duration);
    run.totals = sim.Totals();
    run.digest = sim.StateDigest();
    run.report = sim.DigestReport();
    int64_t shard0_ns = 0;
    int64_t busy_ns = 0;
    int64_t barrier_ns = 0;
    for (const WindowProfile& window : ssim.window_profiles()) {
      shard0_ns += window.shard_busy_ns.front();
      for (int64_t ns : window.shard_busy_ns) {
        busy_ns += ns;
      }
      barrier_ns += window.barrier_ns;
    }
    run.shard0_busy_share =
        busy_ns > 0 ? static_cast<double>(shard0_ns) / static_cast<double>(busy_ns) : 0.0;
    run.barrier_ms = static_cast<double>(barrier_ns) / 1e6;
  }
  run.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          start)
                    .count();
  return run;
}

// Every failure reason that occurred as `CODE:count`, space-separated.
std::string FailureList(const StatusCounts& failures) {
  std::string list;
  for (int i = 0; i < kStatusCodeCount; ++i) {
    const StatusCode code = static_cast<StatusCode>(i);
    if (failures.count(code) == 0) {
      continue;
    }
    if (!list.empty()) {
      list += " ";
    }
    list += std::string(StatusCodeName(code)) + ":" + std::to_string(failures.count(code));
  }
  return list;
}

// One side's hold-window metrics, each key `<point><side>_<name>` (side "static" or
// "adaptive"); failures by reason are keyed `<point><side>_failures/<CODE>`.
void MeasureSide(BenchJson& json, const std::string& point, const std::string& side,
                 const HotspotTotals& totals) {
  const SloAccount& hold = totals.hold;
  const std::string prefix = point + side + "_";
  json.Measure(prefix + "hold_p99_ms", hold.PercentileMs(0.99));
  json.Measure(prefix + "hold_p999_ms", hold.PercentileMs(0.999));
  json.Measure(prefix + "failure_rate", hold.failure_rate());
  json.Measure(prefix + "goodput_per_s", totals.hold_goodput_per_s);
  json.Measure(prefix + "violations", hold.slo_violations);
  for (int i = 0; i < kStatusCodeCount; ++i) {
    const StatusCode code = static_cast<StatusCode>(i);
    if (hold.failures.count(code) > 0) {
      json.Measure(prefix + "failures/" + std::string(StatusCodeName(code)),
                   hold.failures.count(code));
    }
  }
}

std::string HexDigest(uint64_t digest) {
  std::ostringstream os;
  os << "0x" << std::hex << digest;
  return os.str();
}

// Gate mode (SM_SIM_THREADS set): the peak-intensity adaptive scenario once at the requested
// thread count, metrics dumped for cross-run diffing. Everything written is a pure function
// of (config, seed).
int RunGateMode(int threads, double peak_intensity, const ScenarioTimes& times) {
  HotspotSim sim(MakeConfig(peak_intensity, /*adaptive=*/true, threads, times));
  sim.Run(times.duration());
  sim.ExportMetrics();
  std::cout << "hotspot gate: threads=" << threads << " digest=" << HexDigest(sim.StateDigest())
            << " splits=" << sim.Totals().splits << " merges=" << sim.Totals().merges << "\n";
  if (const char* metrics_out = std::getenv("SM_METRICS_OUT")) {
    std::ofstream os(metrics_out);
    obs::DefaultMetrics().WriteJsonl(os);
    std::cout << "metrics JSONL written to " << metrics_out << "\n";
  }
  return 0;
}

}  // namespace

int main() {
  const double scale = BenchScale();
  const ScenarioTimes times = MakeTimes(scale);
  const std::vector<double> kIntensities = {1.0, 2.0, 4.0, 6.0};
  const double peak_intensity = kIntensities.back();

  if (const char* env = std::getenv("SM_SIM_THREADS")) {
    return RunGateMode(std::max(1, std::atoi(env)), peak_intensity, times);
  }

  PrintHeader("Hotspot economy: adaptive split/merge vs static sharding",
              "Shard Manager §5 (load balancing) — flash crowds inside one shard defeat "
              "whole-shard rebalancing; splitting at the observed median key restores the SLO");

  std::cout << "scenario: 2 regions x 8 servers, 8 -> <=64 shards, 2x800 rps baseline, flash "
            << "crowd holds " << times.flash_hold / 1000000 << "s, "
            << times.duration() / 1000000 << "s virtual per run\n\n";

  // Phase 1: intensity sweep, static vs adaptive.
  struct SweepPoint {
    double intensity = 0.0;
    ScenarioRun static_run;
    ScenarioRun adaptive_run;
  };
  std::vector<SweepPoint> sweep;
  for (double intensity : kIntensities) {
    SweepPoint point;
    point.intensity = intensity;
    point.static_run =
        RunScenario(MakeConfig(intensity, /*adaptive=*/false, /*threads=*/1, times),
                    times.duration());
    point.adaptive_run =
        RunScenario(MakeConfig(intensity, /*adaptive=*/true, /*threads=*/1, times),
                    times.duration());
    sweep.push_back(point);
  }

  // Hold-window numbers: the steady state once the planner has had its reaction budget.
  // Whole-run numbers are dominated by the reaction transient at any realistic request rate.
  TablePrinter table({"intensity", "side", "hold_p99_ms", "hold_p99.9_ms", "failure_rate",
                      "goodput_per_s", "violations", "splits", "merges", "shards",
                      "failures_by_reason"});
  auto add_row = [&table](double intensity, const std::string& side, const HotspotTotals& t) {
    table.AddRowValues(FormatDouble(intensity, 0), side,
                       FormatDouble(t.hold.PercentileMs(0.99), 1),
                       FormatDouble(t.hold.PercentileMs(0.999), 1),
                       FormatDouble(t.hold.failure_rate(), 4),
                       FormatDouble(t.hold_goodput_per_s, 1),
                       static_cast<int64_t>(t.hold.slo_violations), t.splits, t.merges,
                       t.active_shards, FailureList(t.hold.failures));
  };
  for (const SweepPoint& point : sweep) {
    add_row(point.intensity, "static", point.static_run.totals);
    add_row(point.intensity, "adaptive", point.adaptive_run.totals);
  }
  table.Print(std::cout);

  // Phase 2: determinism gate and thread scaling. Every run of the peak adaptive scenario is
  // compared to the sweep's threads=1 run; the repetitions interleave the thread counts (and
  // the one-shard serial loop, whose digest differs by construction) so host drift spreads
  // over all of them alike.
  const ScenarioRun& reference = sweep.back().adaptive_run;
  const HotspotSimConfig peak_config =
      MakeConfig(peak_intensity, /*adaptive=*/true, /*threads=*/1, times);
  constexpr int kWallRuns = 5;
  const std::vector<int> kSimThreads = {1, 2, 4, 8};
  std::vector<std::vector<double>> walls(kSimThreads.size());
  std::vector<double> serial_walls;
  bool deterministic = true;
  for (int rep = 0; rep < kWallRuns; ++rep) {
    for (size_t i = 0; i < kSimThreads.size(); ++i) {
      HotspotSimConfig config = peak_config;
      config.sim_threads = kSimThreads[i];
      const ScenarioRun run = RunScenario(config, times.duration());
      walls[i].push_back(run.wall_ms);
      if (run.digest != reference.digest || run.report != reference.report) {
        deterministic = false;
        std::cerr << "FATAL: threads=" << kSimThreads[i] << " run " << rep
                  << " diverged from the reference run\n--- reference (threads=1) ---\n"
                  << reference.report << "--- threads=" << kSimThreads[i] << " ---\n"
                  << run.report;
      }
    }
    HotspotSimConfig serial = peak_config;
    serial.sim_shards = 1;
    serial_walls.push_back(RunScenario(serial, times.duration()).wall_ms);
  }
  const ScenarioRun profiled = RunScenario(peak_config, times.duration(), /*profile=*/true);
  std::cout << "\ndigest " << HexDigest(reference.digest)
            << (deterministic ? " — byte-identical over " + std::to_string(kWallRuns) +
                                    " runs at each sim_threads {1,2,4,8}\n"
                              : std::string(" — DIVERGED, see stderr\n"));

  // Measured walls; the "vs threads=1" column divides medians and projects nothing.
  TablePrinter walls_table({"sim", "wall_ms_median", "min", "max", "vs_threads=1"});
  const double one_thread_ms = Median(walls[0]);
  auto add_wall_row = [&walls_table, one_thread_ms](const std::string& label,
                                                    const std::vector<double>& samples) {
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    const double median = Median(samples);
    walls_table.AddRowValues(label, FormatDouble(median, 1), FormatDouble(*lo, 1),
                             FormatDouble(*hi, 1), FormatDouble(one_thread_ms / median, 2) + "x");
  };
  for (size_t i = 0; i < kSimThreads.size(); ++i) {
    add_wall_row("threads=" + std::to_string(kSimThreads[i]), walls[i]);
  }
  add_wall_row("serial (1 shard)", serial_walls);
  std::cout << "\nthread scaling, peak adaptive scenario (" << kWallRuns << " runs each):\n";
  walls_table.Print(std::cout);
  std::cout << "profiled threads=1 run: shard 0 busy share "
            << FormatDouble(profiled.shard0_busy_share, 3) << ", barrier "
            << FormatDouble(profiled.barrier_ms, 1) << " ms\n";

  // Phase 3: the peak comparison, gated in the JSON.
  const HotspotTotals& peak_static = sweep.back().static_run.totals;
  const HotspotTotals& peak_adaptive = sweep.back().adaptive_run.totals;
  std::cout << "hold window at intensity " << FormatDouble(peak_intensity, 0)
            << ": failure rate static " << FormatDouble(peak_static.hold.failure_rate(), 4)
            << " adaptive " << FormatDouble(peak_adaptive.hold.failure_rate(), 4)
            << ", goodput static " << FormatDouble(peak_static.hold_goodput_per_s, 1)
            << "/s adaptive " << FormatDouble(peak_adaptive.hold_goodput_per_s, 1) << "/s\n";

  BenchJson json("hotspot", scale);
  json.Measure("virtual_seconds", times.duration() / 1000000);
  json.Measure("peak_intensity", peak_intensity);
  json.MeasureFlag("deterministic", deterministic);
  json.MeasureText("digest", HexDigest(reference.digest));
  json.Require("deterministic");
  // Single-host walls: measured, never gated.
  for (size_t i = 0; i < kSimThreads.size(); ++i) {
    json.MeasureSpread("threads=" + std::to_string(kSimThreads[i]) + "/wall_ms", walls[i]);
  }
  json.MeasureSpread("serial_wall_ms", serial_walls);
  json.Measure("shard0_busy_share", profiled.shard0_busy_share);
  json.Measure("barrier_ms", profiled.barrier_ms);
  for (const SweepPoint& point : sweep) {
    const HotspotTotals& adaptive = point.adaptive_run.totals;
    const std::string prefix = "intensity=" + FormatDouble(point.intensity, 0) + "/";
    MeasureSide(json, prefix, "static", point.static_run.totals);
    MeasureSide(json, prefix, "adaptive", adaptive);
    json.Measure(prefix + "requests", adaptive.run.sent);
    json.Measure(prefix + "measured_requests", adaptive.hold.sent);
    json.Measure(prefix + "splits", adaptive.splits);
    json.Measure(prefix + "merges", adaptive.merges);
    json.Measure(prefix + "active_shards", adaptive.active_shards);
    // The sweep curve depends on the flash hold, so baselines compare at equal scale only: the
    // success-only tail must not grow, and a planner that split must keep splitting.
    json.MeasureFlag(prefix + "adaptive_splits_any", adaptive.splits > 0);
    json.Gate({.metric = prefix + "adaptive_hold_p999_ms", .direction = "lower",
               .tolerance = kBenchTolerance, .same_scale = true});
    json.Gate({.metric = prefix + "adaptive_splits_any", .tolerance = 0.0, .same_scale = true});
  }
  // At the peak, adaptive split/merge must beat static sharding on both failure rate and
  // goodput.
  json.MeasureFlag("peak/adaptive_failure_rate_below_static",
                   peak_adaptive.hold.failure_rate() < peak_static.hold.failure_rate());
  json.MeasureFlag("peak/adaptive_goodput_above_static",
                   peak_adaptive.hold_goodput_per_s > peak_static.hold_goodput_per_s);
  json.Gate({.metric = "peak/adaptive_failure_rate_below_static", .direction = "equal",
             .bound = "true"});
  json.Gate({.metric = "peak/adaptive_goodput_above_static", .direction = "equal",
             .bound = "true"});
  json.Write();
  return deterministic ? 0 : 1;
}
