// Tracer: causal spans for shard lifecycle operations on the simulated timeline.
//
// Every lifecycle chain — solver decision -> orchestrator op -> TaskControl negotiation ->
// add/prepare/drop on the server -> discovery publication -> first client-visible route — is
// keyed by a TraceId propagated through the control plane, and chaos faults are recorded as
// instants on the same timeline, so an exported trace shows each injected fault followed by the
// control plane's reaction spans.
//
// Timestamps come from the global sim clock (src/common/clock.h): the same seed produces a
// byte-identical exported trace (asserted by the `obs`-labelled ctest). Tracing is off by
// default — call DefaultTracer().Enable() (or set it up in a bench) to record; the SM_TRACE_*
// macros are no-ops while disabled. The switch is at run time only: every build can trace.
//
// Export is Chrome trace_event JSON: load in chrome://tracing or https://ui.perfetto.dev.
// Spans use async begin/end events ('b'/'e') keyed by the TraceId; instants use 'i'.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"

namespace shardman {
namespace obs {

// Identifies one causal chain of trace events. Value 0 is "no trace".
struct TraceId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
};

struct TraceEvent {
  TimeMicros ts = 0;
  char phase = 'i';  // 'b' = async begin, 'e' = async end, 'i' = instant
  uint64_t id = 0;   // TraceId for async events; 0 for plain instants
  std::string category;
  std::string name;
  std::string args_json;  // comma-separated "key":value pairs, already JSON-escaped; may be empty
};

// Tiny arg helpers so call sites build valid args_json without hand-quoting.
std::string Arg(const char* key, int64_t value);
std::string Arg(const char* key, double value);
std::string Arg(const char* key, const std::string& value);  // escapes the value

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Drops all recorded events and resets the TraceId sequence — call between experiment runs
  // so repeated runs produce identical ids (the determinism contract).
  void Clear();

  // A fresh id for a new causal chain. Works while disabled (components key their state by
  // TraceId regardless of whether events are being recorded) and stays deterministic: ids are
  // sequential from 1 after Clear().
  TraceId NewTrace();

  // Async span delimiters. Begin/End pairs match on (id, category, name).
  void Begin(TraceId id, const char* category, const char* name, std::string args_json = "");
  void End(TraceId id, const char* category, const char* name, std::string args_json = "");
  // A point event. Pass `id` to associate it with a chain (rendered into args).
  void Instant(const char* category, const char* name, std::string args_json = "",
               TraceId id = {});

  const std::vector<TraceEvent>& events() const { return events_; }

  // Chrome trace_event JSON ("traceEvents" array object format), loadable in chrome://tracing
  // and Perfetto. One synthetic thread lane per category, named via thread_name metadata.
  void WriteChromeTrace(std::ostream& os) const;
  std::string ChromeTraceJson() const;

 private:
  void Record(TimeMicros ts, char phase, uint64_t id, const char* category, const char* name,
              std::string args_json);

  bool enabled_ = false;
  uint64_t next_trace_id_ = 1;
  std::vector<TraceEvent> events_;
  // category -> synthetic tid lane, assigned in first-use order (deterministic per run).
  std::unordered_map<std::string, int> lanes_;
  std::vector<std::string> lane_names_;
};

// The process-wide tracer the SM_TRACE_* macros write to. Never destroyed before exit.
Tracer& DefaultTracer();

}  // namespace obs
}  // namespace shardman

// -- Instrumentation macros --------------------------------------------------------------------
// The enabled() guard keeps arg-string construction off the hot path while tracing is off.

#define SM_TRACE_BEGIN(id, category, name, ...)                              \
  do {                                                                       \
    if (::shardman::obs::DefaultTracer().enabled()) {                        \
      ::shardman::obs::DefaultTracer().Begin((id), (category), (name),       \
                                             ##__VA_ARGS__);                 \
    }                                                                        \
  } while (false)

#define SM_TRACE_END(id, category, name, ...)                                \
  do {                                                                       \
    if (::shardman::obs::DefaultTracer().enabled()) {                        \
      ::shardman::obs::DefaultTracer().End((id), (category), (name),         \
                                           ##__VA_ARGS__);                   \
    }                                                                        \
  } while (false)

#define SM_TRACE_INSTANT(category, name, ...)                                \
  do {                                                                       \
    if (::shardman::obs::DefaultTracer().enabled()) {                        \
      ::shardman::obs::DefaultTracer().Instant((category), (name),           \
                                               ##__VA_ARGS__);               \
    }                                                                        \
  } while (false)

#endif  // SRC_OBS_TRACE_H_
