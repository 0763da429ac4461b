// HotspotSim: the open-loop hotspot economy experiment (DESIGN.md §15) — million-user Zipf
// traffic with moving hotspots against the full Testbed stack, with the split/merge planner
// on or off. The workload behind bench/hotspot_slo and the hotspot determinism lane.
//
// Traffic model. Each region runs an open-loop arrival process (arrivals keep coming whether
// or not earlier requests finished — the regime where queueing actually bites): baseline
// Poisson arrivals at `requests_per_second` whose keys are Zipf-skewed around a hot center
// (optionally drifting through the keyspace on a diurnal period), plus a flash crowd — a
// transient rate multiplier aimed at a tight, previously-cold key region. Because popular
// keys are CONTIGUOUS (see SampleZipfKey), the flash crowd lands inside one shard: whole-shard
// rebalancing cannot help, only splitting the shard can. `flash_peak` is the sweep axis of
// BENCH_hotspot.json.
//
// Simulation shape. The Testbed (orchestrator, discovery, routers, servers) lives on sim
// shard 0; each region's traffic generator lives on a spare shard and produces arrivals one
// conservative window ahead (every batch covers [T+L, T+L+W)), delivered to shard 0 through
// the sharded simulator's mailboxes. Thread count therefore cannot reorder anything — the
// same-seed digest is byte-identical across sim_threads {1, 2, 8}, and the generators give
// the PR 8 cross-shard machinery a real open-loop workout. Servers run the finite-capacity
// FIFO service model, so an unsplit hotspot shows up as unbounded queueing delay at the tail.
//
// SLO accounting. A failed request is a failure counted by its StatusCode and an SLO
// violation; it is never a latency sample. Latency percentiles and means are over successful
// requests only, and every slice also reports its failure rate and goodput.
//
// StateDigest() folds the final shard set (every active shard's key range), the orchestrator's
// split/merge counters and every region's SLO accounting (counts, failures by reason, latency
// histogram) into one FNV-1a value — a pure function of (config, seed). ExportMetrics
// publishes the sm.hotspot.* / sm.slo.* gauges (digest halves included) for SM_METRICS_OUT
// byte-diffing.

#ifndef SRC_WORKLOAD_HOTSPOT_SIM_H_
#define SRC_WORKLOAD_HOTSPOT_SIM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/core/split_merge_planner.h"
#include "src/workload/load_gen.h"
#include "src/workload/testbed.h"

namespace shardman {

struct HotspotSimConfig {
  int regions = 2;
  int servers_per_region = 6;
  int initial_shards = 8;
  int max_shards = 64;  // planner ceiling AND the accountant's shard-bucket count

  // Open-loop arrivals per region. With the default scale this models a million-user fleet:
  // each simulated request stands for a batch of identical user requests, so SLO percentiles
  // are over the same distribution at 1/batch the event cost.
  double requests_per_second = 1500.0;
  double zipf_s = 1.2;
  uint64_t key_population = 1 << 20;
  // Scattered baseline (default): popular baseline keys spread across every shard, so static
  // sharding serves the baseline comfortably and the flash crowd is the isolated variable.
  // Turn off to make the baseline itself range-concentrated (with optional diurnal drift).
  bool baseline_scatter = true;

  // Flash crowd: rate multiplies by `flash_peak` (the hotspot-intensity sweep axis), with the
  // extra traffic Zipf-concentrated on a tight key region half the keyspace away from the
  // baseline hot center. flash_peak == 1 disables the event.
  double flash_peak = 4.0;
  TimeMicros flash_start = Seconds(20);
  TimeMicros flash_rise = Seconds(4);
  TimeMicros flash_hold = Seconds(40);
  TimeMicros flash_fall = Seconds(8);
  uint64_t flash_population = 1 << 14;
  // Zipf exponent for the flash class (0 = inherit zipf_s). A flash crowd is many users on a
  // tight key *range*, not one key: keep this below ~1.0 so the hottest single key stays
  // within one server's capacity — a single infeasible key is unsolvable by splitting.
  double flash_zipf_s = 0.0;

  // Diurnal drift: the baseline hot center rotates once per period (0 = stationary).
  TimeMicros diurnal_period = 0;

  // Finite-capacity servers (requests/second each); the queueing that makes hotspots hurt.
  double server_service_rate = 900.0;

  // Adaptive sharding on/off — the A/B the bench compares — plus the planner's knobs.
  bool adaptive = true;
  SplitMergePlannerConfig planner;

  // SLO threshold for the violation counters (latency percentiles are always recorded).
  double slo_ms = 100.0;

  // Steady-state measurement window: requests sent in [flash_start + flash_rise +
  // measure_grace, flash_start + flash_rise + flash_hold] feed a second SLO account. The
  // grace period is the planner's reaction budget — the A/B (BENCH_hotspot.json) compares
  // hold-window failure rate, goodput and success-only p99.9, static vs adaptive, because
  // whole-run numbers are dominated by the reaction transient at any realistic request rate.
  TimeMicros measure_grace = Seconds(10);

  int sim_shards = 4;
  int sim_threads = 1;
  uint64_t seed = 42;
};

// SLO accounting for one slice of requests (a region's whole run, or its hold window).
// Latencies are over successful requests only.
struct SloAccount {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t slo_violations = 0;  // failures plus successes slower than the SLO
  uint64_t latency_sum_us = 0;
  LatencyHistogram latency;
  StatusCounts failures;  // by reason

  void Record(const RequestOutcome& outcome, double slo_ms);
  void Merge(const SloAccount& other);

  uint64_t failed() const { return failures.total(); }
  // Share of finished requests that failed.
  double failure_rate() const;
  double mean_ms() const;
  double PercentileMs(double q) const { return latency.Percentile(q) / 1000.0; }
};

struct HotspotTotals {
  SloAccount run;   // every request
  SloAccount hold;  // requests sent inside the steady-state measurement window
  // Successful hold-window requests per simulated second of the window.
  double hold_goodput_per_s = 0.0;
  int64_t splits = 0;
  int64_t merges = 0;
  int active_shards = 0;
};

class HotspotSim {
 public:
  explicit HotspotSim(HotspotSimConfig config);
  ~HotspotSim();
  HotspotSim(const HotspotSim&) = delete;
  HotspotSim& operator=(const HotspotSim&) = delete;

  // Brings the testbed to full readiness (SM_CHECK on timeout), starts the planner (when
  // adaptive) and the per-region generators, then advances `duration` of virtual time.
  // Callable once.
  void Run(TimeMicros duration);

  Testbed& testbed() { return *testbed_; }
  SplitMergePlanner* planner() { return planner_.get(); }
  const HotspotSimConfig& config() const { return config_; }

  HotspotTotals Totals() const;
  // FNV-1a over the final shard set, split/merge counters and every region's SLO state; a
  // pure function of (config, seed), independent of sim_threads.
  uint64_t StateDigest() const;
  // One line per digest component, for localizing a divergence.
  std::string DigestReport() const;
  // Publishes totals + digest halves as sm.hotspot.* / sm.slo.* gauges.
  void ExportMetrics() const;

 private:
  // Feeder-shard-owned traffic state (one per region; untouched by shard 0).
  struct RegionTraffic {
    explicit RegionTraffic(uint64_t seed) : rng(seed) {}
    Rng rng;
    TimeMicros next_candidate = 0;  // thinning: candidate arrivals at the peak rate
    uint64_t generated = 0;
  };
  // Shard-0-owned SLO accounting (one per region; written only by router callbacks).
  struct RegionSlo {
    SloAccount run;
    SloAccount hold;  // only requests sent inside the measurement window
  };

  int feeder_shard(int region) const {
    return config_.sim_shards > 1 ? 1 + region % (config_.sim_shards - 1) : 0;
  }
  double RateFactorAt(TimeMicros t) const;
  void GenerateWindow(int region);
  void OnArrival(int region, uint64_t key);

  HotspotSimConfig config_;
  std::unique_ptr<Testbed> testbed_;
  std::vector<std::unique_ptr<ServiceRouter>> routers_;  // one per region, shard 0
  std::unique_ptr<SplitMergePlanner> planner_;
  std::vector<std::unique_ptr<RegionTraffic>> traffic_;
  std::vector<std::unique_ptr<RegionSlo>> slo_;
  TimeMicros window_ = 0;       // generation batch width (>= the sharded lookahead)
  TimeMicros traffic_start_ = 0;  // flash/diurnal schedules are relative to this
  TimeMicros traffic_end_ = 0;    // generators stop scheduling past this
  TimeMicros measure_begin_ = 0;  // steady-state measurement window (absolute sim time)
  TimeMicros measure_end_ = 0;
  bool started_ = false;
};

}  // namespace shardman

#endif  // SRC_WORKLOAD_HOTSPOT_SIM_H_
