// Parallel-simulation scaling bench (DESIGN.md §13): FleetSim — a geo-distributed
// request/response fleet roughly 10x the testbed fleets of the figure benches — run on the
// sharded simulator, with determinism enforced and scaling measured.
//
// Three phases:
//
//   1. Serial baseline: the fleet on the classic single-shard event loop (sim_shards=1),
//      wall-clock timed. It runs first, before any sharded run: timed after the twelve
//      sharded gate runs of the same process, the same work read up to ~18% slower, which
//      biased `serial_events_per_sec` and `fleet_size_x`.
//   2. Determinism gate: the identical fleet runs at sim_threads in {1, 2, 4, 8}; the
//      full-state digests (and their line-by-line reports) must match byte-for-byte. Any
//      divergence prints both reports and exits nonzero — the same gate discipline as
//      BENCH_delta.json and BENCH_smr_failover.json. Each gate run's wall time is the measured
//      scaling curve (`measured_wall_ms`).
//   3. Scaling: the sharded run is profiled per conservative window (per-shard busy-ns +
//      barrier drain-ns); the speedup at T threads is the critical path — LPT packing of each
//      window's shard busy times onto T workers, plus the serial barrier — summed over
//      windows. It is a projection, listed under `projected` in the JSON next to the measured
//      walls; the threads=1 measured wall validates its numerator.
//
// Output: tables on stdout plus BENCH_sim_parallel.json in the working directory (shared
// schema, DESIGN.md §16). SM_BENCH_SCALE shrinks virtual time for CI; SM_SIM_REPS (default 3)
// sets how many times each timed configuration repeats — every wall is recorded as a
// {median,min,max,n} record over the reps, and the median run stands for the configuration.
//
// Gate mode: with SM_SIM_THREADS set, runs the fleet once at that thread count, prints the
// digest, and writes SM_METRICS_OUT (flat JSONL metrics incl. the digest gauges) and
// SM_FLIGHT_OUT (flight-recorder rings: partition/heal events on the sim clock). The CI
// sim-determinism lane runs this at 1/2/3/8 threads and diffs the dumps byte-for-byte.

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
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/workload/fleet_sim.h"

using namespace shardman;
using namespace shardman::bench;

namespace {

struct FleetRun {
  double wall_ms = 0.0;
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t cross_messages = 0;
  uint64_t cross_cancels = 0;
  uint64_t digest = 0;
  std::string report;
  FleetTotals totals;
  std::vector<WindowProfile> profiles;
};

FleetSimConfig MakeFleetConfig(int shards, int threads) {
  FleetSimConfig config;
  // ~10x the figure-bench testbeds: 24 regions x (50 servers + 20 clients) = 1,680 actors.
  config.num_regions = 24;
  config.servers_per_region = 50;
  config.clients_per_region = 20;
  config.sim_shards = shards;
  config.sim_threads = threads;
  config.requests_per_second_per_client = 200.0;
  config.remote_fraction = 0.15;
  config.hedge_fraction = 0.4;
  config.chaos_partitions = 2;
  config.chaos_start = Seconds(1);
  config.chaos_interval = Seconds(2);
  config.chaos_duration = Millis(800);
  config.seed = 8;
  return config;
}

FleetRun RunFleet(const FleetSimConfig& config, TimeMicros virtual_time, bool profile) {
  FleetSim fleet(config);
  fleet.sim().set_profiling(profile);
  const auto t0 = std::chrono::steady_clock::now();
  fleet.Run(virtual_time);
  const auto t1 = std::chrono::steady_clock::now();
  FleetRun run;
  run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  run.events = fleet.sim().ExecutedEvents();
  run.windows = fleet.sim().windows_run();
  run.cross_messages = fleet.sim().cross_shard_messages();
  run.cross_cancels = fleet.sim().cross_shard_cancels();
  run.digest = fleet.StateDigest();
  run.report = fleet.DigestReport();
  run.totals = fleet.Totals();
  if (profile) {
    run.profiles = fleet.sim().window_profiles();
  }
  return run;
}

// Wall-clock ratios from single runs are noisy on shared hosts (4-thread walls of one build
// have spread 358-1441 ms), so every measured configuration runs `reps` times. The run with
// the median wall stands for the configuration and `walls_ms` keeps every rep's wall; the
// digest must agree across reps — it is a pure function of (config, seed).
struct FleetReps {
  FleetRun median;
  std::vector<double> walls_ms;
};

FleetReps RunFleetReps(const FleetSimConfig& config, TimeMicros virtual_time, bool profile,
                       int reps) {
  std::vector<FleetRun> runs;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(RunFleet(config, virtual_time, profile));
    SM_CHECK_EQ(runs.back().digest, runs.front().digest);
  }
  std::sort(runs.begin(), runs.end(),
            [](const FleetRun& a, const FleetRun& b) { return a.wall_ms < b.wall_ms; });
  FleetReps result;
  for (const FleetRun& run : runs) {
    result.walls_ms.push_back(run.wall_ms);
  }
  result.median = std::move(runs[(runs.size() - 1) / 2]);
  return result;
}

std::string HexDigest(uint64_t digest) {
  std::ostringstream os;
  os << "0x" << std::hex << digest;
  return os.str();
}

// Critical-path projection: wall-nanoseconds for the profiled run replayed on `threads`
// workers — per window, LPT-pack the shard busy times onto the workers, then add the serial
// barrier drain.
double ProjectNs(const std::vector<WindowProfile>& profiles, int threads) {
  double total = 0.0;
  for (const WindowProfile& w : profiles) {
    std::vector<double> busy(w.shard_busy_ns.begin(), w.shard_busy_ns.end());
    total += LptMakespan(busy, threads) + static_cast<double>(w.barrier_ns);
  }
  return total;
}

// Gate mode (SM_SIM_THREADS set): one run at the requested thread count, dumps written for
// cross-run diffing. Everything written is a pure function of (config, seed): metrics carry
// the fleet totals + digest halves, the flight rings carry partition/heal events on the sim
// clock.
int RunGateMode(int threads, TimeMicros virtual_time) {
  obs::DefaultFlightRecorder().Clear();
  FleetSimConfig config = MakeFleetConfig(/*shards=*/8, threads);
  FleetSim fleet(config);
  fleet.Run(virtual_time);
  fleet.ExportMetrics();
  std::cout << "sim_parallel gate: threads=" << threads << " digest="
            << HexDigest(fleet.StateDigest()) << " events=" << fleet.sim().ExecutedEvents()
            << "\n";
  if (const char* metrics_out = std::getenv("SM_METRICS_OUT")) {
    std::ofstream os(metrics_out);
    obs::DefaultMetrics().WriteJsonl(os);
    std::cout << "metrics JSONL written to " << metrics_out << "\n";
  }
  if (const char* flight_out = std::getenv("SM_FLIGHT_OUT")) {
    // Written directly (no pid suffix): the lane needs stable names to diff across runs.
    std::ofstream os(flight_out);
    obs::DefaultFlightRecorder().WriteJsonl(os, "sim_parallel_gate");
    std::cout << "flight dump written to " << flight_out << "\n";
  }
  return 0;
}

}  // namespace

int main() {
  const double scale = BenchScale();
  const TimeMicros virtual_time =
      std::max<TimeMicros>(Seconds(2), static_cast<TimeMicros>(Seconds(10) * scale));

  if (const char* env = std::getenv("SM_SIM_THREADS")) {
    const int threads = std::max(1, std::atoi(env));
    return RunGateMode(threads, virtual_time);
  }

  PrintHeader("Parallel simulation scaling (sharded event loop)",
              "DESIGN.md §13 — conservative-window sharded simulator; determinism across "
              "thread counts is the acceptance gate");

  std::cout << "fleet: 24 regions x (50 servers + 20 clients), 8 shards, "
            << virtual_time / 1000000 << "s virtual, host=" << HostJson() << "\n\n";

  const int reps = std::max(1, static_cast<int>(EnvInt("SM_SIM_REPS", 3)));
  // Phase 1: serial baseline — the identical fleet on the classic single-shard loop, timed
  // before any sharded run has touched the process.
  const FleetReps serial_reps = RunFleetReps(MakeFleetConfig(/*shards=*/1, /*threads=*/1),
                                             virtual_time, /*profile=*/false, reps);
  const FleetRun& serial = serial_reps.median;

  // Phase 2: determinism gate across thread counts.
  const std::vector<int> kThreads = {1, 2, 4, 8};
  std::vector<FleetReps> gate_reps;
  for (int threads : kThreads) {
    FleetSimConfig config = MakeFleetConfig(/*shards=*/8, threads);
    // Every gate run is also a measured point of the scaling curve, so each gets the reps;
    // the threads=1 run doubles as the profiled projection run.
    gate_reps.push_back(RunFleetReps(config, virtual_time, /*profile=*/threads == 1, reps));
  }
  bool deterministic = true;
  for (size_t i = 1; i < gate_reps.size(); ++i) {
    if (gate_reps[i].median.digest != gate_reps[0].median.digest ||
        gate_reps[i].median.report != gate_reps[0].median.report) {
      deterministic = false;
      std::cerr << "FATAL: threads=" << kThreads[i] << " diverged from threads=1\n"
                << "--- threads=1 ---\n"
                << gate_reps[0].median.report << "--- threads=" << kThreads[i] << " ---\n"
                << gate_reps[i].median.report;
    }
  }
  TablePrinter gate({"threads", "digest", "events", "completed", "wall_ms", "speedup_x"});
  for (size_t i = 0; i < gate_reps.size(); ++i) {
    gate.AddRowValues(kThreads[i], HexDigest(gate_reps[i].median.digest),
                      static_cast<int64_t>(gate_reps[i].median.events),
                      static_cast<int64_t>(gate_reps[i].median.totals.completed),
                      FormatDouble(gate_reps[i].median.wall_ms, 1),
                      FormatDouble(gate_reps[0].median.wall_ms / gate_reps[i].median.wall_ms, 2));
  }
  gate.Print(std::cout);
  std::cout << (deterministic ? "deterministic: byte-identical digests across {1,2,4,8} threads\n"
                              : "DIVERGED — see stderr\n");
  if (!deterministic) {
    return 1;
  }

  const FleetRun& sharded = gate_reps[0].median;  // threads=1, profiled

  // Phase 3: critical-path scaling projection from the profiled window breakdown.
  const double projected_1t = ProjectNs(sharded.profiles, 1);
  std::cout << "\nScaling (critical-path projection over " << sharded.profiles.size()
            << " windows; threads=1 measured wall validates the numerator):\n";
  TablePrinter scaling({"threads", "projected_ms", "speedup_x", "events_per_sec"});
  struct Point {
    int threads;
    double speedup;
    double events_per_sec;
  };
  std::vector<Point> points;
  for (int threads : {1, 2, 4, 8}) {
    const double projected = ProjectNs(sharded.profiles, threads);
    const double speedup = projected > 0.0 ? projected_1t / projected : 0.0;
    const double wall_s = sharded.wall_ms / 1000.0 / (speedup > 0.0 ? speedup : 1.0);
    const double eps = wall_s > 0.0 ? static_cast<double>(sharded.events) / wall_s : 0.0;
    points.push_back({threads, speedup, eps});
    scaling.AddRowValues(threads, FormatDouble(projected / 1e6, 1), FormatDouble(speedup, 2),
                         FormatDouble(eps, 0));
  }
  scaling.Print(std::cout);

  const double serial_eps =
      serial.wall_ms > 0.0 ? static_cast<double>(serial.events) / (serial.wall_ms / 1000.0)
                           : 0.0;
  const double sharded_1t_eps =
      sharded.wall_ms > 0.0 ? static_cast<double>(sharded.events) / (sharded.wall_ms / 1000.0)
                            : 0.0;
  // Fleet-size improvement at 8 threads: same fleet, same virtual time — how much more fleet
  // fits in fixed wall-clock vs the serial loop.
  const double speedup_8t = points.back().speedup;
  const double fleet_size_x =
      serial_eps > 0.0 ? points.back().events_per_sec / serial_eps : 0.0;
  std::cout << "\nSerial vs sharded:\n";
  TablePrinter compare({"configuration", "wall_ms", "events", "events_per_sec"});
  compare.AddRowValues(std::string("serial (1 shard)"), FormatDouble(serial.wall_ms, 1),
                       static_cast<int64_t>(serial.events), FormatDouble(serial_eps, 0));
  compare.AddRowValues(std::string("sharded x8 (1 thread)"), FormatDouble(sharded.wall_ms, 1),
                       static_cast<int64_t>(sharded.events), FormatDouble(sharded_1t_eps, 0));
  compare.AddRowValues(std::string("sharded x8 (8 threads, projected)"),
                       FormatDouble(sharded.wall_ms / speedup_8t, 1),
                       static_cast<int64_t>(sharded.events),
                       FormatDouble(points.back().events_per_sec, 0));
  compare.Print(std::cout);
  std::cout << "fleet-size improvement at 8 threads vs serial: " << FormatDouble(fleet_size_x, 2)
            << "x (acceptance floor 5x)\n";
  std::cout << "cross-shard: " << sharded.cross_messages << " messages, "
            << sharded.cross_cancels << " cancels, " << sharded.windows << " windows\n";

  BenchJson json("sim_parallel", scale);
  json.MeasureFlag("deterministic", deterministic);
  json.MeasureText("digest", HexDigest(sharded.digest));
  json.MeasureSpread("serial_wall_ms", serial_reps.walls_ms);
  json.Measure("serial_events", serial.events);
  json.Measure("serial_events_per_sec", serial_eps);
  json.Measure("sharded_events", sharded.events);
  json.Measure("windows", sharded.windows);
  json.Measure("cross_shard_messages", sharded.cross_messages);
  json.Measure("cross_shard_cancels", sharded.cross_cancels);
  for (size_t i = 0; i < gate_reps.size(); ++i) {
    json.MeasureSpread("threads=" + std::to_string(kThreads[i]) + "/wall_ms",
                       gate_reps[i].walls_ms);
  }
  // Critical-path projections from the threads=1 window profiles, not wall measurements.
  for (const Point& point : points) {
    const std::string prefix = "threads=" + std::to_string(point.threads) + "/";
    json.Project(prefix + "speedup_x", point.speedup);
    json.Project(prefix + "events_per_sec", point.events_per_sec);
  }
  json.Project("speedup_8t_x", speedup_8t);
  json.Project("fleet_size_x", fleet_size_x);
  json.Require("deterministic");
  json.Gate({.metric = "speedup_8t_x", .tolerance = kBenchTolerance});
  json.Gate({.metric = "fleet_size_x", .tolerance = kBenchTolerance, .bound = "5"});
  json.Gate({.metric = "serial_events_per_sec", .tolerance = kBenchTolerance});
  json.Write();
  return 0;
}
