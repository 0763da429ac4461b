// Small statistics utilities used by experiments and load-balancing code:
//  - OnlineStats: streaming mean / min / max / variance.
//  - Percentile(): exact percentile of a sample vector.
//  - LogLinearHistogram: fixed-size log-linear histogram with percentile estimation.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"

namespace shardman {

// Welford's online mean/variance plus min/max.
class OnlineStats {
 public:
  void Add(double x) {
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double variance() const { return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }

  void Reset() { *this = OnlineStats(); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact p-th percentile (p in [0, 100]) of a sample, by partial sort. Mutates its copy.
// SM_CHECK-fails on an empty sample or out-of-range p: a percentile of nothing is caller error.
double Percentile(std::vector<double> samples, double p);

// Fixed-size, allocation-free log-linear histogram of non-negative integers (latencies in
// microseconds). Values below 2^(S+2) sit in linear buckets of width 2; above that, each
// power-of-two octave [2^e, 2^(e+1)) splits into 2^S equal sub-buckets, so a bucket's width is
// at most 2^-S of its lower edge (S = 4: <= 6.25%). Values of 2^(kTopOctave+1) and more clamp
// into the last bucket. S = 0 is the plain log2 layout: [0, 2), then [2^b, 2^(b+1)).
template <int S, typename Count>
class LogLinearHistogram {
 public:
  static constexpr int kTopOctave = 27;  // the last octave is [2^27, 2^28) us, ~134-268 s
  static constexpr int kBuckets = (kTopOctave - S + 1) << S;

  static constexpr int BucketIndex(uint64_t v) {
    const int e = std::max(static_cast<int>(std::bit_width(v)) - 1, S + 1);
    const int idx = ((e - S) << S) + static_cast<int>(v >> (e - S)) - (1 << S);
    return std::min(idx, kBuckets - 1);
  }
  // Inclusive lower edge of bucket `idx`; the bucket is [BucketLower(idx), BucketLower(idx + 1)).
  static constexpr uint64_t BucketLower(int idx) {
    const int octave = idx >> S;
    if (octave == 0) {
      return static_cast<uint64_t>(idx) << 1;
    }
    const uint64_t sub = static_cast<uint64_t>(idx) & ((uint64_t{1} << S) - 1);
    return (sub | (uint64_t{1} << S)) << octave;
  }

  void Add(uint64_t v) { ++counts_[static_cast<size_t>(BucketIndex(v))]; }

  template <typename C>
  void Merge(const LogLinearHistogram<S, C>& other) {
    for (int i = 0; i < kBuckets; ++i) {
      counts_[static_cast<size_t>(i)] += other.bucket(i);
    }
  }
  // this - other, bucket-wise; `other` must be an earlier snapshot of the same histogram.
  void Subtract(const LogLinearHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      SM_CHECK_GE(counts_[static_cast<size_t>(i)], other.counts_[static_cast<size_t>(i)]);
      counts_[static_cast<size_t>(i)] -= other.counts_[static_cast<size_t>(i)];
    }
  }
  void Reset() { counts_.fill(0); }

  Count bucket(int idx) const { return counts_[static_cast<size_t>(idx)]; }
  uint64_t count() const {
    uint64_t total = 0;
    for (Count c : counts_) {
      total += c;
    }
    return total;
  }

  // The q-quantile (q in [0, 1]): rank = max(1, q * n), then linear interpolation inside the
  // bucket that covers that rank. 0 when empty.
  double Percentile(double q) const {
    SM_CHECK_GE(q, 0.0);
    SM_CHECK_LE(q, 1.0);
    const uint64_t n = count();
    if (n == 0) {
      return 0.0;
    }
    const double rank = std::max(1.0, q * static_cast<double>(n));
    uint64_t cumulative = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t in_bucket = counts_[static_cast<size_t>(i)];
      if (in_bucket == 0) {
        continue;
      }
      if (static_cast<double>(cumulative + in_bucket) >= rank) {
        const double lo = static_cast<double>(BucketLower(i));
        const double hi = static_cast<double>(BucketLower(i + 1));
        const double frac =
            (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
        return lo + frac * (hi - lo);
      }
      cumulative += in_bucket;
    }
    return static_cast<double>(BucketLower(kBuckets));  // unreachable: rank <= n
  }

 private:
  std::array<Count, kBuckets> counts_{};
};

// The latency histogram for metrics, probes and experiments: 16 sub-buckets per octave.
using LatencyHistogram = LogLinearHistogram<4, uint64_t>;

}  // namespace shardman

#endif  // SRC_COMMON_STATS_H_
