// Shared helpers for the figure-reproduction benchmarks: the ZippyDB-like solver workload of
// §8.4 (heterogeneous capacities, 20x shard-load spread, three LB metrics), output helpers and
// the one writer of every BENCH_<bench>.json (BenchJson, DESIGN.md §16).

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/solver/rebalancer.h"

namespace shardman {
namespace bench {

struct ZippyProblemSpec {
  int servers = 1000;
  int shards_per_server = 75;   // paper: 75K shards on 1K servers
  int regions = 10;
  double fill = 0.72;           // fleet utilization on the CPU metric
  double capacity_variation = 0.2;  // ±20% (paper: storage capacity varies by up to 20%)
  double load_spread = 20.0;    // largest shard 20x the smallest
  bool with_groups = false;     // give shards 3-replica groups + spread/affinity goals
  uint64_t seed = 1;
};

// Builds the random-initial-assignment stress problem of Fig. 21: every shard starts on a
// uniformly random server.
inline SolverProblem MakeZippyProblem(const ZippyProblemSpec& spec) {
  Rng rng(spec.seed);
  SolverProblem p;
  p.num_metrics = 3;  // cpu, storage, shard_count (§8.1: ZippyDB balances on these three)
  for (int b = 0; b < spec.servers; ++b) {
    std::vector<double> cap = {
        100.0 * rng.Uniform(1.0 - spec.capacity_variation, 1.0 + spec.capacity_variation),
        100.0 * rng.Uniform(1.0 - spec.capacity_variation, 1.0 + spec.capacity_variation),
        2.0 * spec.shards_per_server,
    };
    p.AddBin(cap, b % spec.regions, b % (spec.regions * 3), b);
  }
  const int shards = spec.servers * spec.shards_per_server;
  double sum0 = 0.0;
  for (int e = 0; e < shards; ++e) {
    double intensity = std::exp(rng.Uniform() * std::log(spec.load_spread));
    std::vector<double> load = {intensity, intensity * rng.Uniform(0.5, 1.5), 1.0};
    int group = spec.with_groups ? e / 3 : -1;
    p.AddEntity(load, group, static_cast<int32_t>(rng.UniformInt(0, spec.servers - 1)));
    sum0 += load[0];
  }
  // Normalize cpu/storage loads so the fleet runs at `fill` of mean capacity.
  double target_mean = spec.fill * 100.0 * spec.servers / shards;
  double scale = target_mean * shards / sum0;
  for (int e = 0; e < shards; ++e) {
    p.entity_load[static_cast<size_t>(e) * 3] *= scale;
    p.entity_load[static_cast<size_t>(e) * 3 + 1] *= scale;
  }
  return p;
}

// Replaces the random initial assignment with a greedy balanced one (per-region round-robin
// cursor, capacity-aware): the "previous round's solution" a warm-started incremental repair
// begins from. Deterministic for a fixed problem.
inline void AssignGreedyBalanced(SolverProblem& p) {
  const int bins = p.num_bins();
  if (bins == 0) {
    return;
  }
  // Round-robin cursor per region keeps regional populations even; skipping bins whose cpu
  // utilization already exceeds the running mean keeps the packing near-balanced.
  std::vector<double> used(static_cast<size_t>(bins), 0.0);
  double placed_load = 0.0;
  int cursor = 0;
  for (int e = 0; e < p.num_entities(); ++e) {
    double load = p.entity_load[static_cast<size_t>(e) * static_cast<size_t>(p.num_metrics)];
    double mean = placed_load / static_cast<double>(bins);
    int chosen = -1;
    for (int probe = 0; probe < bins; ++probe) {
      int b = (cursor + probe) % bins;
      double cap = p.bin_capacity[static_cast<size_t>(b) * static_cast<size_t>(p.num_metrics)];
      if (used[static_cast<size_t>(b)] + load <= cap &&
          (used[static_cast<size_t>(b)] <= mean || probe == bins - 1)) {
        chosen = b;
        cursor = (b + 1) % bins;
        break;
      }
    }
    if (chosen < 0) {
      chosen = cursor;
      cursor = (cursor + 1) % bins;
    }
    p.assignment[static_cast<size_t>(e)] = chosen;
    used[static_cast<size_t>(chosen)] += load;
    placed_load += load;
  }
}

// Perturbs a solved/balanced problem the way a production round perturbs the previous one:
// kills `kill_fraction` of the servers, drains `drain_fraction`, and shifts the load of
// `shift_fraction` of the shards (up to 3x). Entities on killed bins become unassigned.
struct PerturbSpec {
  double kill_fraction = 0.01;
  double drain_fraction = 0.005;
  double shift_fraction = 0.02;
  uint64_t seed = 99;
};

inline void PerturbProblem(SolverProblem& p, const PerturbSpec& spec) {
  Rng rng(spec.seed);
  const int bins = p.num_bins();
  int kills = static_cast<int>(bins * spec.kill_fraction);
  int drains = static_cast<int>(bins * spec.drain_fraction);
  for (int i = 0; i < kills; ++i) {
    p.bin_alive[static_cast<size_t>(rng.UniformInt(0, bins - 1))] = 0;
  }
  for (int i = 0; i < drains; ++i) {
    int b = static_cast<int>(rng.UniformInt(0, bins - 1));
    if (p.bin_alive[static_cast<size_t>(b)] != 0) {
      p.bin_draining[static_cast<size_t>(b)] = 1;
    }
  }
  const int entities = p.num_entities();
  int shifts = static_cast<int>(entities * spec.shift_fraction);
  for (int i = 0; i < shifts; ++i) {
    int e = static_cast<int>(rng.UniformInt(0, entities - 1));
    double factor = rng.Uniform(0.5, 3.0);
    p.entity_load[static_cast<size_t>(e) * static_cast<size_t>(p.num_metrics)] *= factor;
    p.entity_load[static_cast<size_t>(e) * static_cast<size_t>(p.num_metrics) + 1] *= factor;
  }
  for (int e = 0; e < entities; ++e) {
    int32_t b = p.assignment[static_cast<size_t>(e)];
    if (b >= 0 && p.bin_alive[static_cast<size_t>(b)] == 0) {
      p.assignment[static_cast<size_t>(e)] = -1;  // host died: replica needs re-placement
    }
  }
}

// The LB goals of §8.4: hard capacity, 90% utilization threshold, utilization within 10% of
// the average — per metric. With groups: region spread + region preferences for 25% of shards.
inline Rebalancer MakeZippySpecs(const ZippyProblemSpec& spec) {
  Rebalancer rb;
  for (int m = 0; m < 3; ++m) {
    rb.AddConstraint(CapacitySpec{m, 1.0});
    rb.AddGoal(ThresholdSpec{m, 0.9}, 2000.0);
    rb.AddGoal(BalanceSpec{DomainScope::kGlobal, m, 0.10}, 1000.0);
  }
  if (spec.with_groups) {
    rb.AddGoal(ExclusionSpec{DomainScope::kRegion}, 30000.0);
    AffinitySpec affinity;
    int groups = spec.servers * spec.shards_per_server / 3;
    for (int g = 0; g < groups; g += 4) {
      affinity.entries.push_back(AffinityEntry{g, g % spec.regions, 1, 1.0});
    }
    rb.AddGoal(affinity, 100000.0);
  }
  return rb;
}

inline void PrintHeader(const std::string& title, const std::string& paper_reference) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "Paper reference: " << paper_reference << "\n\n";
}

// Environment-driven scale factor so CI can shrink the heavy benches (SM_BENCH_SCALE=0.1).
inline double BenchScale() {
  const char* env = std::getenv("SM_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

// The host a BENCH_*.json was measured on, as a JSON object: core count, compiler and build
// type (defined by bench/CMakeLists.txt) and `git describe --always --dirty` of the working
// directory ("unknown" outside a checkout).
inline std::string HostJson() {
  std::string sha;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      sha += buf;
    }
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.empty()) {
    sha = "unknown";
  }
  std::string json = "{\"cores\":" + std::to_string(std::thread::hardware_concurrency());
  json += ",\"compiler\":\"" SM_BENCH_COMPILER "\"";
  json += ",\"build_type\":\"" SM_BENCH_BUILD_TYPE "\"";
  json += ",\"git_sha\":\"" + sha + "\"}";
  return json;
}

// Relative drift from the committed baseline that a tolerance gate allows: shared runners are
// noisy, so wall-clock rates move by this much without a code change.
inline constexpr double kBenchTolerance = 0.20;

// One gate of a BENCH file: `metric` must sit on the `direction` side ("higher", "lower" or
// "equal") of `bound` (a JSON literal such as "5" or "true"; empty = none) and, against the
// baseline file's value of the same key, may drift the wrong way by at most `tolerance`
// (relative; unset = no comparison). `same_scale` restricts the baseline comparison to runs at
// equal SM_BENCH_SCALE. A broken `hard` gate fails scripts/check_bench_regression.py; any
// other is a warning.
struct BenchGate {
  std::string metric;
  const char* direction = "higher";
  std::optional<double> tolerance;
  std::string bound;
  bool hard = false;
  bool same_scale = false;
};

// The median of `samples` (at least one); the mean of the middle two for an even count.
inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return (samples[(n - 1) / 2] + samples[n / 2]) / 2.0;
}

// Builds one BENCH_<bench>.json in the shared schema: bench, scale, host, measured{},
// projected{} (always empty: no bench projects anything) and gates[]. Keys name their point
// ("kill_interval_s=15/success_rate"); a value is a scalar or a {median,min,max,n} record over
// repeated runs.
class BenchJson {
 public:
  BenchJson(std::string bench, double scale) : bench_(std::move(bench)), scale_(scale) {}

  void Measure(const std::string& key, double value) { measured_.emplace_back(key, Num(value)); }
  void MeasureFlag(const std::string& key, bool value) {
    measured_.emplace_back(key, value ? "true" : "false");
  }
  void MeasureText(const std::string& key, const std::string& value) {
    measured_.emplace_back(key, "\"" + value + "\"");
  }
  // A {median,min,max,n} record of `samples` (at least one).
  void MeasureSpread(const std::string& key, std::vector<double> samples) {
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    measured_.emplace_back(key, "{\"median\": " + Num(Median(samples)) + ", \"min\": " +
                                    Num(*lo) + ", \"max\": " + Num(*hi) +
                                    ", \"n\": " + std::to_string(samples.size()) + "}");
  }
  void Gate(BenchGate gate) { gates_.push_back(std::move(gate)); }
  // A hard gate: the measured flag `key` must be true (a determinism or equivalence contract).
  void Require(const std::string& key) {
    Gate({.metric = key, .direction = "equal", .bound = "true", .hard = true});
  }

  // Writes BENCH_<bench>.json into the working directory.
  void Write() const {
    std::string json = "{\n  \"bench\": \"" + bench_ + "\",\n  \"scale\": " + Num(scale_) +
                       ",\n  \"host\": " + HostJson() + ",\n  \"measured\": " +
                       Object(measured_) + ",\n  \"projected\": {},\n  \"gates\": [";
    for (size_t i = 0; i < gates_.size(); ++i) {
      const BenchGate& g = gates_[i];
      json += std::string(i > 0 ? "," : "") + "\n    {\"metric\": \"" + g.metric +
              "\", \"direction\": \"" + g.direction + "\"";
      if (g.tolerance.has_value()) {
        json += ", \"tolerance\": " + Num(*g.tolerance);
      }
      if (!g.bound.empty()) {
        json += ", \"bound\": " + g.bound;
      }
      json += std::string(", \"hard\": ") + (g.hard ? "true" : "false");
      if (g.same_scale) {
        json += ", \"same_scale\": true";
      }
      json += "}";
    }
    json += gates_.empty() ? "]\n}\n" : "\n  ]\n}\n";
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream(path) << json;
    std::cout << "\nJSON written to " << path << "\n";
  }

 private:
  static std::string Num(double value) {
    if (!std::isfinite(value)) {
      return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return buf;
  }
  static std::string Object(const std::vector<std::pair<std::string, std::string>>& fields) {
    std::string json = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      json += std::string(i > 0 ? "," : "") + "\n    \"" + fields[i].first + "\": " +
              fields[i].second;
    }
    return json + (fields.empty() ? "}" : "\n  }");
  }

  std::string bench_;
  double scale_;
  std::vector<std::pair<std::string, std::string>> measured_;
  std::vector<BenchGate> gates_;
};

inline int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) {
    return fallback;
  }
  int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

// Sharded-simulator knobs (DESIGN.md §13) for Testbed-driven benches: SM_SIM_SHARDS /
// SM_SIM_THREADS partition the event loop per region group and bound its window threads. The
// defaults keep every bench on the classic single-shard path, byte-identical to before.
inline int SimShardsFromEnv(int fallback = 1) { return EnvInt("SM_SIM_SHARDS", fallback); }
inline int SimThreadsFromEnv(int fallback = 1) { return EnvInt("SM_SIM_THREADS", fallback); }

}  // namespace bench
}  // namespace shardman

#endif  // BENCH_BENCH_UTIL_H_
