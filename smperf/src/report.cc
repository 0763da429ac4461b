#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "smperf/src/common.h"
#include "src/common/status.h"

namespace smperf {

using shardman::RequestOutcome;
using shardman::RequestType;
using shardman::ServiceRouter;
using shardman::TimeMicros;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------------------------------------
// Tracer

namespace {

constexpr int kThreadShift = 40;
constexpr int64_t kLocalMask = (int64_t{1} << kThreadShift) - 1;

struct ThreadBuffer {
  int64_t index = 0;
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;  // stack of open span ids on this thread
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu
std::atomic<int64_t> g_main_open{-1};
thread_local ThreadBuffer* t_buffer = nullptr;
thread_local bool t_main = false;

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->index = static_cast<int64_t>(g_buffers.size() - 1);
  }
  return *t_buffer;
}

}  // namespace

bool Tracer::enabled_ = false;

void Tracer::Enable() { enabled_ = true; }

void Tracer::MarkMainThread() { t_main = true; }

int64_t Tracer::Open(const char* name, int64_t request) {
  ThreadBuffer& buffer = LocalBuffer();
  SpanRecord span;
  span.name = name;
  span.id = (buffer.index << kThreadShift) | static_cast<int64_t>(buffer.spans.size());
  span.parent = !buffer.open.empty() ? buffer.open.back()
                                      : (t_main ? -1 : g_main_open.load(std::memory_order_relaxed));
  span.request = request;
  buffer.open.push_back(span.id);
  if (t_main) {
    g_main_open.store(span.id, std::memory_order_relaxed);
  }
  span.start_ns = WallNs();
  buffer.spans.push_back(span);
  return span.id;
}

void Tracer::Close(int64_t id, int64_t end_ns) {
  ThreadBuffer& buffer = *t_buffer;
  buffer.spans[static_cast<size_t>(id & kLocalMask)].end_ns = end_ns;
  buffer.open.pop_back();
  if (t_main) {
    g_main_open.store(buffer.open.empty() ? -1 : buffer.open.back(), std::memory_order_relaxed);
  }
}

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::map<std::string, SpanStat> AggregateSpans(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
  }
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (it != index.end()) {
      children[it->second].push_back(i);
    }
  }
  std::map<std::string, SpanStat> stats;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const int64_t duration = span.end_ns - span.start_ns;
    // Union of the child intervals, clipped to the parent (children on other threads may
    // overlap each other).
    intervals.clear();
    for (size_t c : children[i]) {
      intervals.emplace_back(std::max(spans[c].start_ns, span.start_ns),
                             std::min(spans[c].end_ns, span.end_ns));
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (const auto& [begin, end] : intervals) {
      const int64_t from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    SpanStat& stat = stats[span.name];
    ++stat.count;
    stat.total_ms += static_cast<double>(duration) / 1e6;
    stat.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return stats;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "id,parent,name,start_ns,end_ns,request\n";
  for (const SpanRecord& span : spans) {
    out << span.id << ',' << span.parent << ',' << span.name << ',' << span.start_ns << ','
        << span.end_ns << ',' << span.request << '\n';
  }
  return static_cast<bool>(out);
}

void AddSpanTiming(const std::vector<SpanRecord>& spans, Report& report) {
  const std::map<std::string, SpanStat> stats = AggregateSpans(spans);
  std::map<std::string, SpanStat> layers;
  std::printf("%-28s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, stat] : stats) {
    std::printf("%-28s %10lld %12.3f %12.3f\n", name.c_str(), static_cast<long long>(stat.count),
                stat.total_ms, stat.self_ms);
    SpanStat& layer = layers[name.substr(0, name.find('.'))];
    layer.count += stat.count;
    layer.total_ms += stat.total_ms;
    layer.self_ms += stat.self_ms;
  }
  std::printf("%-28s %10s %12s %12s\n", "layer", "spans", "total_ms", "self_ms");
  for (const auto& [layer, stat] : layers) {
    std::printf("%-28s %10lld %12.3f %12.3f\n", layer.c_str(), static_cast<long long>(stat.count),
                stat.total_ms, stat.self_ms);
    report.timing[layer + ".self_ms"] = stat.self_ms;
  }
  const auto route = stats.find("routing.route");
  if (route != stats.end()) {
    report.timing["routing.route_call_ns"] =
        route->second.total_ms * 1e6 / static_cast<double>(route->second.count);
  }
}

// ---------------------------------------------------------------------------------------------
// RequestRecorder

void RequestRecorder::Send(ServiceRouter& router, uint64_t key, RequestType type,
                            TimeMicros now) {
  const bool measured = now >= measure_from_;
  const int64_t request = next_request_id_++;
  ++sent_;
  if (measured) {
    ++measured_sent_;
  }
  ScopedSpan span("routing.route", request);
  router.Route(key, type, key, [this, measured](const RequestOutcome& outcome) {
    if (outcome.success) {
      ++ok_;
    } else {
      ++failed_;
    }
    if (!measured) {
      return;
    }
    if (outcome.success) {
      latencies_us_.push_back(outcome.latency);
      sorted_ = false;
      if (shardman::ToMillis(outcome.latency) <= slo_ms_) {
        ++within_slo_;
      }
    } else {
      std::string name(shardman::StatusCodeName(outcome.status.code()));
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      ++failures_[name];
    }
  });
}

double RequestRecorder::PercentileMs(double q) {
  if (latencies_us_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(latencies_us_.begin(), latencies_us_.end());
    sorted_ = true;
  }
  const size_t n = latencies_us_.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return static_cast<double>(latencies_us_[rank - 1]) / 1000.0;
}

// ---------------------------------------------------------------------------------------------
// Report

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void JsonMap(std::ostringstream& os, const std::map<std::string, double>& values) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : values) {
    os << (first ? "" : ",") << JsonString(name) << ':' << JsonNumber(value);
    first = false;
  }
  os << '}';
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"exact\":";
  JsonMap(os, exact);
  os << ",\"timing\":";
  JsonMap(os, timing);
  os << ",\"steps_ms\":[";
  for (size_t i = 0; i < steps_ms.size(); ++i) {
    os << (i > 0 ? "," : "") << JsonNumber(steps_ms[i]);
  }
  os << "],\"checks\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    os << (i > 0 ? "," : "") << "{\"name\":" << JsonString(checks[i].name)
       << ",\"ok\":" << (checks[i].ok ? "true" : "false")
       << ",\"detail\":" << JsonString(checks[i].detail) << '}';
  }
  os << "],\"compiler\":" << JsonString(SMPERF_COMPILER)
     << ",\"build_type\":" << JsonString(SMPERF_BUILD_TYPE) << '}';
  return os.str();
}

}  // namespace smperf
