#include "src/common/stats.h"

namespace shardman {

double Percentile(std::vector<double> samples, double p) {
  // Validate p even for empty input: an out-of-range percentile is caller error regardless of
  // sample count, and must not be masked by the empty-sample early return.
  SM_CHECK_GE(p, 0.0);
  SM_CHECK_LE(p, 100.0);
  SM_CHECK(!samples.empty());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(lo), samples.end());
  double lo_val = samples[lo];
  if (hi == lo) {
    return lo_val;
  }
  double hi_val = *std::min_element(samples.begin() + static_cast<ptrdiff_t>(lo) + 1,
                                    samples.end());
  double frac = rank - static_cast<double>(lo);
  return lo_val + frac * (hi_val - lo_val);
}

}  // namespace shardman
