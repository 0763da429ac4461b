// Workload generators: per-shard intrinsic loads with a heavy-tailed spread (§8.4: the largest
// ZippyDB shard's load is 20x the smallest), heterogeneous server capacities (±20% storage),
// and the diurnal modulation every production figure exhibits (Figs 18, 23).

#ifndef SRC_WORKLOAD_LOAD_GEN_H_
#define SRC_WORKLOAD_LOAD_GEN_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"

namespace shardman {

// Samples `n` per-shard load scalars whose max/min ratio is approximately `spread` (log-uniform
// between 1 and spread, then normalized to mean 1.0).
std::vector<double> SampleShardLoadScalars(int n, double spread, Rng& rng);

// Samples heterogeneous capacities: base * Uniform[1 - variation, 1 + variation].
std::vector<double> SampleCapacities(int n, double base, double variation, Rng& rng);

// Diurnal load factor at time t: sinusoid with a 24h period oscillating in [trough, 1.0],
// peaking at `peak_hour` local time.
double DiurnalFactor(TimeMicros t, double trough, double peak_hour = 20.0);

// -- Key-popularity sampling (DESIGN.md §15) ----------------------------------------------------
//
// Zipf-skewed key popularity with *range-concentrated* hotspots: rank r maps to the r-th key
// slot after `hot_center`, so popular keys (low ranks) are CONTIGUOUS in key space. That makes
// the hotspot invisible to whole-shard rebalancing — one shard absorbs nearly all the traffic —
// and is exactly the case the split/merge planner exists for. Moving `hot_center` relocates the
// hotspot (diurnal shift); sampling a second config with a different center models a flash
// crowd on previously cold keys.
struct ZipfKeyConfig {
  uint64_t population = 1'000'000;  // distinct key slots, spread evenly over [0, ~0ULL)
  double s = 1.1;                   // Zipf exponent; higher = more skew
  uint64_t hot_center = 0;          // key of rank 0 (ignored when scatter is set)
  // Scattered mode: popular keys are spread uniformly over the keyspace (rank is Fibonacci-
  // hashed) instead of being contiguous. A scattered Zipf baseline is what static uniform
  // sharding handles WELL — every shard gets an even cut of the skew — which makes it the
  // right background traffic for isolating what a range-concentrated hotspot does on top.
  bool scatter = false;
};

// Samples one key: rank via Rng::ZipfIndex, then key = hot_center + rank * stride where
// stride = ~0ULL / population (wrapping below ~0ULL, the exclusive keyspace end); in
// scattered mode the rank is Fibonacci-hashed over the keyspace instead.
uint64_t SampleZipfKey(Rng& rng, const ZipfKeyConfig& config);

// Flash-crowd intensity multiplier at time t: 1.0 outside the event, ramping linearly to
// `peak` over [start, start+rise], holding through [start+rise, start+rise+hold], then
// decaying linearly back to 1.0 over `fall`.
double FlashCrowdFactor(TimeMicros t, TimeMicros start, TimeMicros rise, TimeMicros hold,
                        TimeMicros fall, double peak);

// Diurnal hotspot drift: the hot center at time t, rotating through the keyspace once per
// `period` starting from `initial_center`. With period == 0 the center never moves.
uint64_t DiurnalHotCenter(TimeMicros t, uint64_t initial_center, TimeMicros period);

}  // namespace shardman

#endif  // SRC_WORKLOAD_LOAD_GEN_H_
