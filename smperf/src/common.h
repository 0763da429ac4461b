// Shared pieces of the smperf benchmark: wall/CPU clocks, an in-memory span tracer
// that wraps calls into the program from the outside, a per-request outcome recorder with
// exact percentiles, and the report every workload fills in.
//
// The benchmark treats the program as a library: it builds every workload from public calls
// (Testbed, ServiceRouter::Route, SplitMergePlanner, ShardedSimulator::RunFor) and reads public
// counters and accessors afterwards.

#ifndef SMPERF_SRC_COMMON_H_
#define SMPERF_SRC_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/routing/service_router.h"

namespace shardman {
class Testbed;
namespace obs {
struct MetricsSnapshot;
}  // namespace obs
}  // namespace shardman

namespace smperf {

// Monotonic wall clock in nanoseconds.
int64_t WallNs();
// CPU time of the whole process (all threads), in seconds.
double ProcessCpuSeconds();
// Peak resident set of the process so far, in MB (10^6 bytes).
double PeakRssMb();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool small = false;         // reduced-size smoke configuration
  std::string spans_path;     // where a traced run writes its spans (empty: not written)
  int64_t process_start_ns = 0;
};

// ---------------------------------------------------------------------------------------------
// Span tracer. Disabled, a ScopedSpan costs one predictable branch. Enabled, every span lands in
// a per-thread buffer (no locks on the hot path) and is analysed and written out at exit.
// A span opened on a thread with no open span of its own is parented to the innermost span
// open on the main thread, so simulator callbacks running on pool workers nest under the
// RunFor call that dispatched them.

struct SpanRecord {
  const char* name = nullptr;  // static string "layer.call"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;  // request id for Route spans
};

class Tracer {
 public:
  static bool enabled() { return enabled_; }
  static void Enable();
  static void MarkMainThread();

  static int64_t Open(const char* name, int64_t request);
  static void Close(int64_t id, int64_t end_ns);

  // All spans recorded so far, thread by thread.
  static std::vector<SpanRecord> Collect();

 private:
  static bool enabled_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1)
      : id_(Tracer::enabled() ? Tracer::Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) {
      Tracer::Close(id_, WallNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

// Per-name aggregate of a span set: count, total duration, and self time (duration minus the
// part of the interval covered by child spans).
struct SpanStat {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanStat> AggregateSpans(const std::vector<SpanRecord>& spans);
// Writes spans as CSV (id,parent,name,start_ns,end_ns,request). Returns false on I/O failure.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

// ---------------------------------------------------------------------------------------------
// Open-loop request recorder. Each request is sent at its due simulated time, so the
// latency the router reports is latency from the due time (generator lateness is zero by
// construction). Every outcome is kept; percentiles are exact over successful requests.

class RequestRecorder {
 public:
  explicit RequestRecorder(double slo_ms) : slo_ms_(slo_ms) {}

  // Requests due at or after `t` count towards the measured-phase statistics.
  void set_measure_from(shardman::TimeMicros t) { measure_from_ = t; }

  // Routes one request through `router` at simulated time `now`.
  void Send(shardman::ServiceRouter& router, uint64_t key, shardman::RequestType type,
             shardman::TimeMicros now);

  uint64_t sent() const { return sent_; }
  uint64_t ok() const { return ok_; }
  uint64_t failed() const { return failed_; }
  uint64_t measured_sent() const { return measured_sent_; }
  uint64_t measured_ok() const { return static_cast<uint64_t>(latencies_us_.size()); }
  uint64_t measured_within_slo() const { return within_slo_; }
  // Failures of measured requests by terminal status name.
  const std::map<std::string, uint64_t>& failures() const { return failures_; }
  // Exact nearest-rank percentile (q in (0,1]) of successful measured latencies, in ms.
  double PercentileMs(double q);

 private:
  double slo_ms_;
  shardman::TimeMicros measure_from_ = 0;
  uint64_t sent_ = 0;
  uint64_t ok_ = 0;
  uint64_t failed_ = 0;
  uint64_t measured_sent_ = 0;
  uint64_t within_slo_ = 0;
  int64_t next_request_id_ = 0;
  std::vector<int64_t> latencies_us_;
  bool sorted_ = false;
  std::map<std::string, uint64_t> failures_;
};

// ---------------------------------------------------------------------------------------------
// What one workload process reports. `exact` values must repeat bit-for-bit for the same code
// and seed (simulated outcomes and counts); `timing` values are wall/CPU measurements.

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::map<std::string, double> exact;
  // Wall time of each step of the measured phase, in order. The steps of one seed are the same
  // work in every process, so run.py can take each step's fastest time across processes.
  std::vector<double> steps_ms;
  std::map<std::string, double> timing;
  std::vector<Check> checks;

  void Expect(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back({name, ok, detail});
  }
  std::string ToJson() const;
};

// Per-layer span self time, in ms, under `timing["<layer>.self_ms"]`, plus a printed table.
void AddSpanTiming(const std::vector<SpanRecord>& spans, Report& report);

// Request outcomes of the measured phase (success, SLO attainment, exact latency percentiles,
// failures by status) and the check that every request sent has completed.
void AddRequestMetrics(RequestRecorder& recorder, Report& report);
// Counters of the routing, apps, discovery, core, cluster and allocator layers; `delta` is the
// metrics registry's change over the measured phase.
void AddStackMetrics(shardman::Testbed& bed, const shardman::obs::MetricsSnapshot& delta,
                     Report& report);
// Traced runs only: timed probes over the final map, the router's pick (routing.pick_ns) and
// a delta diff/apply against a one-split successor (discovery.diff_us, discovery.apply_us).
void AddPostRunProbes(shardman::Testbed& bed, shardman::ServiceRouter& router, uint64_t seed,
                      Report& report);

void RunHotspotFlash(const Options& options, Report& report);
void RunRollingUpgrade(const Options& options, Report& report);

}  // namespace smperf

#endif  // SMPERF_SRC_COMMON_H_
