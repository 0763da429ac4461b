#include "src/workload/load_gen.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace shardman {

std::vector<double> SampleShardLoadScalars(int n, double spread, Rng& rng) {
  SM_CHECK_GT(n, 0);
  SM_CHECK_GE(spread, 1.0);
  std::vector<double> loads(static_cast<size_t>(n));
  double log_spread = std::log(spread);
  double sum = 0.0;
  for (double& load : loads) {
    load = std::exp(rng.Uniform() * log_spread);  // log-uniform in [1, spread]
    sum += load;
  }
  double mean = sum / static_cast<double>(n);
  for (double& load : loads) {
    load /= mean;
  }
  return loads;
}

std::vector<double> SampleCapacities(int n, double base, double variation, Rng& rng) {
  SM_CHECK_GT(n, 0);
  SM_CHECK_GE(variation, 0.0);
  std::vector<double> caps(static_cast<size_t>(n));
  for (double& cap : caps) {
    cap = base * rng.Uniform(1.0 - variation, 1.0 + variation);
  }
  return caps;
}

double DiurnalFactor(TimeMicros t, double trough, double peak_hour) {
  SM_CHECK_GE(trough, 0.0);
  SM_CHECK_LE(trough, 1.0);
  double hours = ToSeconds(t) / 3600.0;
  double phase = 2.0 * M_PI * (hours - peak_hour) / 24.0;
  // cos(phase) = 1 at the peak hour.
  double normalized = 0.5 * (std::cos(phase) + 1.0);  // [0, 1]
  return trough + (1.0 - trough) * normalized;
}

uint64_t SampleZipfKey(Rng& rng, const ZipfKeyConfig& config) {
  SM_CHECK_GT(config.population, 0u);
  // The keyspace is [0, ~0ULL) — the uniform app specs end at ~0ULL, so the last key slot must
  // stay below it.
  const uint64_t keyspace = ~0ULL;
  const uint64_t stride = keyspace / config.population;
  const uint64_t rank =
      static_cast<uint64_t>(rng.ZipfIndex(static_cast<size_t>(config.population), config.s));
  uint64_t key;
  if (config.scatter) {
    // Fibonacci hashing: bijective over 2^64, so distinct ranks stay distinct keys while the
    // popular ones land uniformly across every shard.
    key = rank * 0x9E3779B97F4A7C15ULL;
  } else {
    key = config.hot_center + rank * (stride > 0 ? stride : 1);
  }
  if (key >= keyspace) {
    key -= keyspace;  // wrap inside the half-open keyspace
  }
  return key;
}

double FlashCrowdFactor(TimeMicros t, TimeMicros start, TimeMicros rise, TimeMicros hold,
                        TimeMicros fall, double peak) {
  SM_CHECK_GE(peak, 1.0);
  if (t <= start || t >= start + rise + hold + fall) {
    return 1.0;
  }
  const TimeMicros into = t - start;
  if (into < rise) {
    return 1.0 + (peak - 1.0) * static_cast<double>(into) / static_cast<double>(rise);
  }
  if (into < rise + hold) {
    return peak;
  }
  const TimeMicros fading = into - rise - hold;
  return peak - (peak - 1.0) * static_cast<double>(fading) / static_cast<double>(fall);
}

uint64_t DiurnalHotCenter(TimeMicros t, uint64_t initial_center, TimeMicros period) {
  if (period <= 0) {
    return initial_center;
  }
  const uint64_t keyspace = ~0ULL;
  // Fraction of the period elapsed, as a 2^32-scaled fixed-point value to stay integral
  // (the digest tests need bit-exact positions; no doubles here).
  const uint64_t phase = static_cast<uint64_t>(t % period);
  const uint64_t scaled = (phase << 32) / static_cast<uint64_t>(period);
  uint64_t center = initial_center + (keyspace >> 32) * scaled;
  if (center >= keyspace) {
    center %= keyspace;
  }
  return center;
}

}  // namespace shardman
