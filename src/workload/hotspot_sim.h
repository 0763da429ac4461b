// HotspotSim: the open-loop hotspot economy experiment (DESIGN.md §15) — million-user Zipf
// traffic with moving hotspots against the full Testbed stack, with the split/merge planner
// on or off. The workload behind bench/hotspot_slo and the hotspot determinism lane.
//
// Each region runs one RequestSource (request_source.h): Zipf traffic plus a flash crowd
// aimed at a tight key range. Popular keys are contiguous (SampleZipfKey), so the flash crowd
// lands inside one shard: whole-shard rebalancing cannot help, only splitting can. The Testbed
// lives on sim shard 0 and each generator on a spare shard, so the same-seed digest is
// byte-identical across sim_threads. Servers run the finite-capacity FIFO service model, so an
// unsplit hotspot shows up as queueing delay at the tail. Each source's recorder keeps the
// whole run and, as slice 0, the hold window.
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

#include "src/common/sim_time.h"
#include "src/core/split_merge_planner.h"
#include "src/workload/request_source.h"
#include "src/workload/testbed.h"

namespace shardman {

struct HotspotSimConfig {
  int regions = 2;
  int servers_per_region = 6;
  int initial_shards = 8;
  int max_shards = 64;  // planner ceiling AND the accountant's shard-bucket count

  // Each region's arrivals, all reads; `traffic.flash_peak` is BENCH_hotspot.json's sweep axis.
  // Each simulated request stands for a batch of identical user requests, so this models a
  // million-user fleet at 1/batch the event cost. Region seeds derive from `seed`, not
  // `traffic.seed`.
  RequestSourceConfig traffic = {.requests_per_second = 1500.0, .flash_peak = 4.0, .zipf_s = 1.2,
                                 .write_fraction = 0.0};

  // Finite-capacity servers (requests/second each); the queueing that makes hotspots hurt.
  double server_service_rate = 900.0;

  // Adaptive sharding on/off — the A/B the bench compares — plus the planner's knobs.
  bool adaptive = true;
  SplitMergePlannerConfig planner;

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
  HotspotSimConfig config_;
  std::unique_ptr<Testbed> testbed_;
  std::unique_ptr<SplitMergePlanner> planner_;
  // One per region, created once the testbed is ready. Slice 0 of each recorder is the hold
  // window.
  std::vector<std::unique_ptr<RequestSource>> sources_;
  TimeMicros measure_begin_ = 0;  // steady-state measurement window (absolute sim time)
  TimeMicros measure_end_ = 0;
  bool started_ = false;
};

}  // namespace shardman

#endif  // SRC_WORKLOAD_HOTSPOT_SIM_H_
