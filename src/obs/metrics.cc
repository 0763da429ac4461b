#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace shardman {
namespace obs {

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void SetPercentiles(MetricSample& sample) {
  sample.p50 = sample.hist->Percentile(0.5) / 1000.0;
  sample.p99 = sample.hist->Percentile(0.99) / 1000.0;
}

}  // namespace

void HistogramMetric::Observe(double value_ms) {
  value_ms = std::max(value_ms, 0.0);
  sum_ += value_ms;
  hist_.Add(static_cast<uint64_t>(std::llround(value_ms * 1000.0)));
}

const MetricSample* MetricsSnapshot::Find(const std::string& name) const& {
  auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const MetricSample& sample, const std::string& key) { return sample.name < key; });
  if (it == samples.end() || it->name != name) {
    return nullptr;
  }
  return &*it;
}

int64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const MetricSample* sample = Find(name);
  return sample != nullptr ? sample->counter : 0;
}

double MetricsSnapshot::GaugeValue(const std::string& name) const {
  const MetricSample* sample = Find(name);
  return sample != nullptr ? sample->gauge : 0.0;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Entry& entry = metrics_[name];
  if (entry.counter == nullptr) {
    SM_CHECK(entry.gauge == nullptr && entry.histogram == nullptr);
    entry.kind = MetricKind::kCounter;
    entry.counter = std::make_unique<Counter>();
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Entry& entry = metrics_[name];
  if (entry.gauge == nullptr) {
    SM_CHECK(entry.counter == nullptr && entry.histogram == nullptr);
    entry.kind = MetricKind::kGauge;
    entry.gauge = std::make_unique<Gauge>();
  }
  return entry.gauge.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name) {
  Entry& entry = metrics_[name];
  if (entry.histogram == nullptr) {
    SM_CHECK(entry.counter == nullptr && entry.gauge == nullptr);
    entry.kind = MetricKind::kHistogram;
    entry.histogram = std::make_unique<HistogramMetric>();
  }
  return entry.histogram.get();
}

void MetricsRegistry::ResetValues() {
  for (auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->Reset();
        break;
      case MetricKind::kGauge:
        entry.gauge->Reset();
        break;
      case MetricKind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        sample.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        sample.hist_count = entry.histogram->count();
        sample.hist_sum = entry.histogram->sum();
        sample.hist = std::make_shared<LatencyHistogram>(entry.histogram->histogram());
        SetPercentiles(sample);
        break;
    }
    snapshot.samples.push_back(std::move(sample));
  }
  return snapshot;
}

MetricsSnapshot MetricsRegistry::Delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  delta.samples.reserve(after.samples.size());
  for (const MetricSample& sample : after.samples) {
    MetricSample d = sample;
    const MetricSample* base = before.Find(sample.name);
    if (base != nullptr) {
      SM_CHECK(base->kind == sample.kind);
      d.counter -= base->counter;
      if (sample.kind == MetricKind::kHistogram) {
        d.hist_count -= base->hist_count;
        d.hist_sum -= base->hist_sum;
        auto window = std::make_shared<LatencyHistogram>(*sample.hist);
        window->Subtract(*base->hist);
        d.hist = std::move(window);
        SetPercentiles(d);
      }
      // Gauges keep the `after` value: a difference of levels means nothing.
    }
    delta.samples.push_back(std::move(d));
  }
  return delta;
}

void MetricsRegistry::WriteJsonl(std::ostream& os) const {
  for (const MetricSample& sample : Snapshot().samples) {
    os << "{\"name\":\"" << sample.name << "\",\"kind\":\"" << KindName(sample.kind) << "\"";
    switch (sample.kind) {
      case MetricKind::kCounter:
        os << ",\"value\":" << sample.counter;
        break;
      case MetricKind::kGauge:
        os << ",\"value\":" << sample.gauge;
        break;
      case MetricKind::kHistogram:
        os << ",\"count\":" << sample.hist_count << ",\"sum\":" << sample.hist_sum
           << ",\"p50\":" << sample.p50 << ",\"p99\":" << sample.p99;
        break;
    }
    os << "}\n";
  }
}

MetricsRegistry& DefaultMetrics() {
  // Leaked singleton: instrumentation runs from destructors of static-lifetime components;
  // never destroy the registry underneath them.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace shardman
