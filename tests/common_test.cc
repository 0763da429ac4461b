// Unit tests for src/common: Status/Result, RNG, statistics, histogram, tables, resources, ids,
// SmallFn.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/ids.h"
#include "src/common/resource.h"
#include "src/common/rng.h"
#include "src/common/small_function.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/core/server_api.h"

namespace shardman {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("missing shard");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing shard");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing shard");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(AbortedError("x").code(), StatusCode::kAborted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseHalf(int x, int* out) {
  SM_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(7, &out).code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntCoversEndpoints) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.UniformInt(0, 3));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, ZipfSkewsTowardHead) {
  Rng rng(5);
  int head = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.ZipfIndex(1000, 1.2) < 10) {
      ++head;
    }
  }
  // With s=1.2, the top-1% of ranks should attract far more than 1% of samples.
  EXPECT_GT(head, n / 20);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(OnlineStatsTest, MeanMinMax) {
  OnlineStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    stats.Add(x);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_EQ(stats.count(), 4);
  EXPECT_NEAR(stats.stddev(), 1.29099, 1e-4);
}

TEST(PercentileTest, ExactValues) {
  std::vector<double> samples{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 30);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 50);
  EXPECT_DOUBLE_EQ(Percentile(samples, 25), 20);
}

TEST(PercentileTest, SingleElementAllPercentiles) {
  // p=100 on a single-element vector must return that element, not interpolate past the end.
  std::vector<double> one{42.0};
  EXPECT_DOUBLE_EQ(Percentile(one, 0), 42.0);
  EXPECT_DOUBLE_EQ(Percentile(one, 50), 42.0);
  EXPECT_DOUBLE_EQ(Percentile(one, 100), 42.0);
}

TEST(PercentileDeathTest, EmptySampleChecks) {
  EXPECT_DEATH(Percentile({}, 99), "SM_CHECK");
}

TEST(PercentileDeathTest, OutOfRangePChecksEvenWhenEmpty) {
  EXPECT_DEATH(Percentile({}, 500), "SM_CHECK");
  EXPECT_DEATH(Percentile({1.0}, -1), "SM_CHECK");
  EXPECT_DEATH(Percentile({1.0, 2.0}, 100.5), "SM_CHECK");
}

using Log2Histogram = LogLinearHistogram<0, uint32_t>;

TEST(LogLinearHistogramTest, S0KeepsTheLog2Edges) {
  // [0, 2) us, then [2^b, 2^(b+1)) us: the router-side request-accounting layout.
  EXPECT_EQ(Log2Histogram::kBuckets, 28);
  EXPECT_EQ(Log2Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Log2Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Log2Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Log2Histogram::BucketIndex(3), 1);
  EXPECT_EQ(Log2Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Log2Histogram::BucketIndex(1023), 9);
  EXPECT_EQ(Log2Histogram::BucketIndex(1024), 10);
  // The tail clamps to the last bucket instead of overflowing.
  EXPECT_EQ(Log2Histogram::BucketIndex(uint64_t{1} << 60), Log2Histogram::kBuckets - 1);
  EXPECT_EQ(Log2Histogram::BucketLower(0), 0u);
  EXPECT_EQ(Log2Histogram::BucketLower(1), 2u);  // bucket 0 is [0, 2)
  EXPECT_EQ(Log2Histogram::BucketLower(10), 1024u);
  EXPECT_EQ(Log2Histogram::BucketLower(11), 2048u);  // bucket 10 is [1024, 2047]
}

TEST(LogLinearHistogramTest, S4BucketsTileTheRangeWithinSixPercent) {
  for (int idx = 0; idx < LatencyHistogram::kBuckets; ++idx) {
    const uint64_t lo = LatencyHistogram::BucketLower(idx);
    const uint64_t hi = LatencyHistogram::BucketLower(idx + 1);
    ASSERT_LT(lo, hi) << idx;
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), idx);
    EXPECT_EQ(LatencyHistogram::BucketIndex(hi - 1), idx);
    if (lo >= 32) {
      EXPECT_LE(hi - lo, lo / 16) << idx;
    }
  }
}

TEST(LogLinearHistogramTest, S4PercentileWithinBucketErrorOfExact) {
  Rng rng(9);
  std::vector<double> samples;
  LatencyHistogram hist;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [32 us, 2^27 us].
    const uint64_t v = static_cast<uint64_t>(32.0 * std::exp2(rng.Uniform() * 22.0));
    samples.push_back(static_cast<double>(v));
    hist.Add(v);
  }
  EXPECT_EQ(hist.count(), 20000u);
  for (double q : {0.5, 0.99, 0.999}) {
    const double exact = Percentile(samples, q * 100.0);
    EXPECT_NEAR(hist.Percentile(q), exact, exact * 0.0625) << "q=" << q;
  }
}

TEST(LogLinearHistogramTest, EmptyPercentileIsZero) {
  EXPECT_DOUBLE_EQ(LatencyHistogram().Percentile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(Log2Histogram().Percentile(0.5), 0.0);
}

TEST(LogLinearHistogramTest, MergeAndSubtractAreBucketWise) {
  LatencyHistogram a;
  a.Add(100);
  a.Add(1000);
  LatencyHistogram b;
  b.Add(5000);
  b.Add(1000);
  LatencyHistogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_EQ(merged.bucket(LatencyHistogram::BucketIndex(1000)), 2u);
  merged.Subtract(b);
  for (int idx = 0; idx < LatencyHistogram::kBuckets; ++idx) {
    EXPECT_EQ(merged.bucket(idx), a.bucket(idx)) << idx;
  }
  // A narrow-count histogram merges into a wide one of the same layout.
  Log2Histogram narrow;
  narrow.Add(3);
  LogLinearHistogram<0, uint64_t> wide;
  wide.Merge(narrow);
  EXPECT_EQ(wide.bucket(1), 1u);
}

TEST(LogLinearHistogramDeathTest, OutOfRangeQuantileChecksEvenWhenEmpty) {
  LatencyHistogram hist;
  EXPECT_DEATH(hist.Percentile(1.01), "SM_CHECK");
  EXPECT_DEATH(hist.Percentile(-0.1), "SM_CHECK");
}

TEST(StatusCountsTest, CountsByCode) {
  StatusCounts counts;
  counts.Add(StatusCode::kUnavailable);
  counts.Add(StatusCode::kUnavailable);
  counts.Add(StatusCode::kDeadlineExceeded);
  StatusCounts more;
  more.Add(StatusCode::kNotFound);
  counts.Merge(more);
  EXPECT_EQ(counts.count(StatusCode::kUnavailable), 2u);
  EXPECT_EQ(counts.count(StatusCode::kDeadlineExceeded), 1u);
  EXPECT_EQ(counts.count(StatusCode::kNotFound), 1u);
  EXPECT_EQ(counts.count(StatusCode::kInternal), 0u);
  EXPECT_EQ(counts.total(), 4u);
}

TEST(TableTest, AlignedOutputAndCsv) {
  TablePrinter table({"name", "count"});
  table.AddRowValues(std::string("alpha"), 10);
  table.AddRowValues(std::string("b"), 2000);
  std::ostringstream text;
  table.Print(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  std::ostringstream csv;
  table.PrintCsv(csv);
  EXPECT_EQ(csv.str(), "name,count\nalpha,10\nb,2000\n");
}

TEST(ResourceVectorTest, Arithmetic) {
  ResourceVector a{1.0, 2.0};
  ResourceVector b{0.5, 0.5};
  ResourceVector c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 1.5);
  EXPECT_DOUBLE_EQ(c[1], 2.5);
  c -= b;
  EXPECT_TRUE(c == a);
  EXPECT_DOUBLE_EQ((a * 2.0)[1], 4.0);
  EXPECT_DOUBLE_EQ(a.Total(), 3.0);
}

TEST(ResourceVectorTest, AllLessEq) {
  ResourceVector a{1.0, 2.0};
  ResourceVector b{1.0, 3.0};
  EXPECT_TRUE(a.AllLessEq(b));
  EXPECT_FALSE(b.AllLessEq(a));
}

TEST(MetricSetTest, IndexLookup) {
  MetricSet metrics({"cpu", "storage"});
  EXPECT_EQ(metrics.size(), 2);
  EXPECT_EQ(metrics.IndexOf("storage"), 1);
  EXPECT_EQ(metrics.IndexOf("network"), -1);
  EXPECT_EQ(metrics.name(0), "cpu");
}

TEST(IdsTest, StrongTypesHashAndCompare) {
  ShardId a(1);
  ShardId b(1);
  ShardId c(2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_FALSE(ShardId().valid());
  std::set<ReplicaId> replicas;
  replicas.insert(ReplicaId(a, 0));
  replicas.insert(ReplicaId(a, 1));
  replicas.insert(ReplicaId(a, 0));
  EXPECT_EQ(replicas.size(), 2u);
}

TEST(SmallFunctionTest, SmallCapturesAreStoredInline) {
  int hits = 0;
  int* p = &hits;
  SmallFunction fn([p]() { ++*p; });
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunctionTest, LargeCapturesFallBackToHeap) {
  struct Big {
    char bytes[128] = {};
  };
  Big big;
  big.bytes[0] = 42;
  int seen = 0;
  SmallFunction fn([big, &seen]() { seen = big.bytes[0]; });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(seen, 42);
}

TEST(SmallFunctionTest, MoveTransfersStateAndEmptiesSource) {
  int hits = 0;
  SmallFunction a([&hits]() { ++hits; });
  SmallFunction b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): post-move state is spec'd
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  SmallFunction c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunctionTest, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  SmallFunction fn([owned = std::move(owned), &seen]() { seen = *owned; });
  SmallFunction moved(std::move(fn));
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(SmallFunctionTest, DestructorReleasesCaptures) {
  auto tracked = std::make_shared<int>(1);
  std::weak_ptr<int> weak = tracked;
  {
    SmallFunction fn([tracked = std::move(tracked)]() { (void)*tracked; });
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

TEST(SmallFunctionTest, ReplyCallbackStoresRpcSizedCaptureInline) {
  // The shape of the RPC layer's reply closure: a pointer, two region ids and a 16-byte call
  // handle, 32 bytes in all — twice std::function's inline buffer.
  struct Route {
    uint64_t* out;
    int32_t from;
    int32_t to;
    uint32_t* slot_out;
    uint32_t slot;
    uint32_t generation;
  };
  uint64_t seen_value = 0;
  uint32_t seen_slot = 0;
  const Route route{&seen_value, 1, 2, &seen_slot, 7, 9};
  auto reply_closure = [route](const Reply& reply) {
    *route.out = reply.value;
    *route.slot_out = route.slot;
  };
  static_assert(sizeof(reply_closure) == 32);
  SmallFn<void(const Reply&)> fn(reply_closure);
  EXPECT_TRUE(fn.is_inline());
  Reply reply;
  reply.value = 42;
  fn(reply);
  EXPECT_EQ(seen_value, 42u);
  EXPECT_EQ(seen_slot, 7u);
}

TEST(SmallFunctionTest, TrivialCaptureSurvivesMoveChains) {
  // Pointers and ints only: relocated by copying the inline buffer, never through a manager.
  int hits = 0;
  int* p = &hits;
  uint64_t a = 0x1111, b = 0x2222, c = 0x3333, d = 0x4444;
  auto add = [p, a, b, c, d]() { *p += static_cast<int>(a + b + c + d); };
  static_assert(sizeof(add) == 40 && std::is_trivially_copyable_v<decltype(add)>);
  SmallFunction first(add);
  SmallFunction second(std::move(first));
  SmallFunction third;
  third = std::move(second);
  SmallFunction fourth(std::move(third));
  SmallFunction fifth([]() {});
  fifth = std::move(fourth);
  EXPECT_FALSE(static_cast<bool>(first));   // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(second));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(third));   // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(fourth));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(fifth.is_inline());
  fifth();
  EXPECT_EQ(hits, 0x1111 + 0x2222 + 0x3333 + 0x4444);
}

TEST(SmallFunctionTest, NonTrivialCaptureReleasedExactlyOnceAcrossMoves) {
  auto tracked = std::make_shared<int>(5);
  std::weak_ptr<int> weak = tracked;
  int seen = 0;
  SmallFn<void(const Reply&)> a([tracked = std::move(tracked), &seen](const Reply&) {
    seen = *tracked;
  });
  EXPECT_TRUE(a.is_inline());
  EXPECT_EQ(weak.use_count(), 1);
  SmallFn<void(const Reply&)> b(std::move(a));
  EXPECT_EQ(weak.use_count(), 1);
  SmallFn<void(const Reply&)> c;
  c = std::move(b);
  EXPECT_EQ(weak.use_count(), 1);
  c(Reply());
  EXPECT_EQ(seen, 5);
  // Assigning over a live capture destroys it; resetting an emptied source does nothing.
  auto other = std::make_shared<int>(6);
  std::weak_ptr<int> other_weak = other;
  SmallFn<void(const Reply&)> d([other = std::move(other)](const Reply&) { (void)*other; });
  d = std::move(c);
  EXPECT_TRUE(other_weak.expired());
  EXPECT_EQ(weak.use_count(), 1);
  a.reset();  // NOLINT(bugprone-use-after-move)
  b.reset();  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(weak.use_count(), 1);
  d.reset();
  EXPECT_TRUE(weak.expired());
  EXPECT_FALSE(static_cast<bool>(d));
}

TEST(SmallFunctionTest, LargeArgumentTakingCapturesFallBackToHeap) {
  struct Big {
    uint64_t words[7] = {};
  };
  static_assert(sizeof(Big) > SmallFn<void(const Reply&)>::kInlineCapacity);
  Big big;
  big.words[6] = 11;
  uint64_t seen = 0;
  uint64_t* out = &seen;
  SmallFn<void(const Reply&)> fn(
      [big, out](const Reply& reply) { *out = big.words[6] + reply.value; });
  EXPECT_FALSE(fn.is_inline());
  SmallFn<void(const Reply&)> moved(std::move(fn));
  EXPECT_FALSE(moved.is_inline());
  Reply reply;
  reply.value = 100;
  moved(reply);
  EXPECT_EQ(seen, 111u);
}

}  // namespace
}  // namespace shardman
