// MetricsRegistry: the control plane's single source of measurement truth.
//
// Named counters, gauges and histograms (common/stats.h's LatencyHistogram over integer
// microseconds), registered on first use and stable for the process lifetime so call sites
// can cache metric pointers. The registry supports:
//   * point-in-time snapshots and snapshot deltas (what the bench binaries report);
//   * a flat JSONL export (one metric per line) consumed by bench/ and plotting scripts;
//   * ResetValues() to zero every metric between experiment runs without invalidating any
//     cached pointer.
//
// Instrumentation goes through the SM_COUNTER_* / SM_GAUGE_* / SM_HISTOGRAM_* macros below.
// There is one build flavour: every build records every metric.
//
// Metric naming scheme (see DESIGN.md §7): dot-separated "sm.<subsystem>.<what>", e.g.
// "sm.orchestrator.ops_retried", "sm.discovery.staleness_ms". Histograms carry their unit as a
// suffix (_ms, _us).

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace shardman {
namespace obs {

class Counter {
 public:
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

// Observes values in milliseconds (every histogram name ends in _ms), bucketed as integer
// microseconds; keeps the exact sum of the observed values. Negative values clamp to 0.
class HistogramMetric {
 public:
  void Observe(double value_ms);
  const LatencyHistogram& histogram() const { return hist_; }
  int64_t count() const { return static_cast<int64_t>(hist_.count()); }
  double sum() const { return sum_; }
  void Reset() {
    hist_.Reset();
    sum_ = 0.0;
  }

 private:
  LatencyHistogram hist_;
  double sum_ = 0.0;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// One exported metric value. Counters fill `counter`; gauges fill `gauge`; histograms fill
// count/sum/percentiles and carry their bucket counts, so a Delta recomputes the window's
// percentiles.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  int64_t counter = 0;
  double gauge = 0.0;
  int64_t hist_count = 0;
  double hist_sum = 0.0;
  double p50 = 0.0;  // ms
  double p99 = 0.0;  // ms
  std::shared_ptr<const LatencyHistogram> hist;  // histograms only
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // sorted by name

  // The pointer aims into `samples`, so a temporary snapshot cannot be searched.
  const MetricSample* Find(const std::string& name) const&;
  const MetricSample* Find(const std::string& name) const&& = delete;
  // Value of a counter metric, or 0 when absent (absent == never incremented).
  int64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. Returned pointers remain valid for the registry's lifetime; ResetValues()
  // zeroes values but never unregisters, so call sites may cache them in function-local
  // statics. Registering the same name with a different kind SM_CHECK-fails.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  // Zeroes every registered metric (between experiment runs). Registrations persist.
  void ResetValues();

  MetricsSnapshot Snapshot() const;
  // Per-metric difference `after - before`: counters and histograms subtract (metrics absent
  // in `before` count from zero), and a histogram's p50/p99 are those of the window's
  // observations; gauges take the `after` value.
  static MetricsSnapshot Delta(const MetricsSnapshot& before, const MetricsSnapshot& after);

  // Flat JSONL export: one {"name":...,"kind":...,...} object per line, sorted by name.
  void WriteJsonl(std::ostream& os) const;

  size_t size() const { return metrics_.size(); }

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  // Ordered map: exports are sorted by name, independent of registration order.
  std::map<std::string, Entry> metrics_;
};

// The process-wide registry all instrumentation macros write to. Never destroyed before exit.
MetricsRegistry& DefaultMetrics();

}  // namespace obs
}  // namespace shardman

// -- Instrumentation macros --------------------------------------------------------------------
// `name` must be a string literal (the pointer is cached in a function-local static, keyed by
// the call site), so a call costs one pointer load after its first run.

#define SM_COUNTER_ADD(name, delta)                                          \
  do {                                                                       \
    static ::shardman::obs::Counter* sm_obs_counter_ =                       \
        ::shardman::obs::DefaultMetrics().GetCounter(name);                  \
    sm_obs_counter_->Add(delta);                                             \
  } while (false)

#define SM_GAUGE_SET(name, value)                                            \
  do {                                                                       \
    static ::shardman::obs::Gauge* sm_obs_gauge_ =                           \
        ::shardman::obs::DefaultMetrics().GetGauge(name);                    \
    sm_obs_gauge_->Set(value);                                               \
  } while (false)

#define SM_HISTOGRAM_OBSERVE(name, value)                                    \
  do {                                                                       \
    static ::shardman::obs::HistogramMetric* sm_obs_hist_ =                  \
        ::shardman::obs::DefaultMetrics().GetHistogram(name);                \
    sm_obs_hist_->Observe(value);                                            \
  } while (false)

#define SM_COUNTER_INC(name) SM_COUNTER_ADD(name, 1)

#endif  // SRC_OBS_METRICS_H_
