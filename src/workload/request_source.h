// RequestSource and SloRecorder: the one open-loop client of every scenario and the one place
// its outcomes are counted (DESIGN.md §15).
//
// A source sends through its own ServiceRouter. Arrivals are a nonhomogeneous Poisson process
// drawn from the seed by thinning, at `requests_per_second` times a diurnal and a flash-crowd
// factor. Keys are uniform or Zipf (with a flash class); the op mix picks writes and reads.
// The generator runs on a feeder shard (a spare sim shard when the testbed has one, else
// shard 0) one conservative window ahead and hands each arrival to shard 0 through the sharded
// simulator's mailboxes, so thread count cannot reorder anything.
//
// A request counts as sent at its due time, even before its router has a map (the router parks
// it), and its latency runs from the due time. A failure is counted by its StatusCode and as an
// SLO violation, never as a latency sample. Once drained, sent == ok + failed.

#ifndef SRC_WORKLOAD_REQUEST_SOURCE_H_
#define SRC_WORKLOAD_REQUEST_SOURCE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/routing/service_router.h"

namespace shardman {

class SplitMergePlanner;
class Testbed;

struct RequestSourceConfig {
  // Rate: requests_per_second x DiurnalFactor(t, diurnal_trough) x FlashCrowdFactor(t, flash_*),
  // over time since Start. A trough of 1 or a peak of 1 turns its factor off.
  double requests_per_second = 100.0;
  double diurnal_trough = 1.0;
  double flash_peak = 1.0;
  TimeMicros flash_start = Seconds(20);
  TimeMicros flash_rise = Seconds(4);
  TimeMicros flash_hold = Seconds(40);
  TimeMicros flash_fall = Seconds(8);

  // Keys: uniform over [0, key_span) while zipf_s == 0, else Zipf(zipf_s) over 2^20 slots
  // scattered over every shard. The rate above baseline goes to the flash class: Zipf over 2^14
  // contiguous slots (exponent flash_zipf_s, 0 = zipf_s) half the keyspace away. Keep
  // flash_zipf_s below ~1.0, so the hottest key stays within one server's capacity.
  uint64_t key_span = ~0ULL;
  double zipf_s = 0.0;
  double flash_zipf_s = 0.0;

  double write_fraction = 0.5;  // op mix; the rest are reads

  TimeMicros interval = 0;  // width of the recorder's per-interval series (0 = none)
  double slo_ms = 100.0;    // a success slower than this is an SLO violation
  uint64_t seed = 7;
};

// SLO accounting for one slice of requests. Latencies are over successful requests only.
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
  uint64_t finished() const { return ok + failed(); }
  // Share of finished requests that failed (0 when none finished).
  double failure_rate() const;
  double success_rate() const { return 1.0 - failure_rate(); }
  // Share of finished requests that succeeded within the SLO (1 when none finished).
  double slo_attainment() const;
  double mean_ms() const;
  double PercentileMs(double q) const { return latency.Percentile(q) / 1000.0; }
};

// Books each request by its due time: into the whole-run account, into every time slice that
// holds the due time, and into the per-interval series.
class SloRecorder {
 public:
  SloRecorder(double slo_ms, TimeMicros interval) : slo_ms_(slo_ms), interval_(interval) {}

  // Series entry i covers requests due in [origin + i * interval, origin + (i + 1) * interval).
  void set_origin(TimeMicros origin) { origin_ = origin; }
  // Adds a slice for requests due in [begin, end); returns its index.
  int AddSlice(TimeMicros begin, TimeMicros end);

  void Sent(TimeMicros due);
  void Record(TimeMicros due, const RequestOutcome& outcome);

  const SloAccount& total() const { return total_; }
  const SloAccount& slice(int i) const { return slices_[static_cast<size_t>(i)].account; }
  const std::vector<SloAccount>& series() const { return series_; }

 private:
  struct Slice {
    TimeMicros begin, end;
    SloAccount account;
  };
  // The series entry for `due`, or null when the recorder keeps no series.
  SloAccount* IntervalOf(TimeMicros due);

  double slo_ms_;
  TimeMicros interval_;
  TimeMicros origin_ = 0;
  SloAccount total_;
  std::vector<Slice> slices_;
  std::vector<SloAccount> series_;
};

class RequestSource {
 public:
  // Creates the source's router in `client_region` (it subscribes to discovery at once). Pending
  // simulator events point at the source: once started, it must outlive every later run.
  RequestSource(Testbed* testbed, RegionId client_region, RequestSourceConfig config);
  ~RequestSource();
  RequestSource(const RequestSource&) = delete;
  RequestSource& operator=(const RequestSource&) = delete;

  // Starts arrivals now; rate and key schedules run on time since this call. Call Start, Stop
  // and StopAt between simulator runs, not from inside an event. Callable once.
  void Start();
  // Generation stops at the first window boundary at or after `when`. Arrivals already drawn
  // (at most two windows past it) still go out and count.
  void StopAt(TimeMicros when);
  void Stop();
  // Stops now, then runs the simulator until every drawn request is due and finished. False
  // if some request is still unfinished after `timeout`.
  bool Drain(TimeMicros timeout);

  // Every due request goes to `planner`'s key histogram before it is routed.
  void set_key_observer(SplitMergePlanner* planner) { key_observer_ = planner; }

  SloRecorder& recorder() { return recorder_; }
  const SloRecorder& recorder() const { return recorder_; }
  const SloAccount& totals() const { return recorder_.total(); }
  const ServiceRouter& router() const { return *router_; }
  // Arrivals drawn so far, including any not yet due.
  uint64_t generated() const { return generated_; }

 private:
  uint64_t SampleKey(double flash);
  RequestType SampleType();
  void GenerateWindow();
  void Arrive(uint64_t key, RequestType type);

  Testbed* testbed_;
  RequestSourceConfig config_;
  std::unique_ptr<ServiceRouter> router_;
  SplitMergePlanner* key_observer_ = nullptr;
  int feeder_ = 0;
  TimeMicros window_ = 0;  // generation batch width: max(sharded lookahead, 20 ms)
  TimeMicros start_ = 0;
  TimeMicros end_ = std::numeric_limits<TimeMicros>::max();
  bool started_ = false;

  // Feeder-shard state.
  Rng rng_;
  TimeMicros next_candidate_ = 0;  // thinning: candidate arrivals at the peak rate
  uint64_t generated_ = 0;

  // Shard-0 state.
  SloRecorder recorder_;
};

}  // namespace shardman

#endif  // SRC_WORKLOAD_REQUEST_SOURCE_H_
