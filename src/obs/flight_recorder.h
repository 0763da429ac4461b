// FlightRecorder: a deterministic crash-dump "black box" for the simulated stack.
//
// Each component (chaos, discovery, orchestrator, net, health, ...) owns a fixed-size ring of
// its most recent flight events — cold-path state transitions such as fault injections, map
// publishes, partitions and gray-replica flags. Recording is cheap and bounded: a full ring
// overwrites its oldest entry, so memory never grows however long the run. Timestamps come
// from the global sim clock (src/common/clock.h) and the sequence counter is process-local, so
// the same seed produces a byte-identical dump (asserted by the `obs`-labelled ctest).
//
// Dumps are JSONL — one header line, then one line per retained event, components in sorted
// order, each component's events oldest-first. Triggers:
//   * SM_CHECK failure — DefaultFlightRecorder() installs a check-failure hook on first use,
//     so any aborting invariant dumps the rings to stderr (and to $SM_FLIGHT_OUT when set);
//   * InvariantChecker violations and (opt-in) chaos fault injections call DumpOnTrigger —
//     these dump only when $SM_FLIGHT_OUT names a destination, because violation-tolerant
//     chaos sweeps would otherwise spam stderr.
// When $SM_FLIGHT_OUT is set, the process id is inserted before the extension
// (flight-dump.jsonl -> flight-dump.12345.jsonl) so parallel ctest failures do not clobber
// each other's dumps.
//
// Recording is switched at run time only (enabled()); the SM_FLIGHT macro checks it first.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/sim_time.h"

namespace shardman {
namespace obs {

struct FlightEvent {
  uint64_t seq = 0;  // process-wide recording order (gaps appear once a ring overwrites)
  TimeMicros ts = 0;
  std::string name;
  std::string detail;  // free-form, JSON-escaped at dump time; may be empty
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Per-component ring capacity for components created after the call (existing rings keep
  // theirs). Zero is clamped to 1.
  void set_component_capacity(size_t capacity);
  size_t component_capacity() const { return capacity_; }

  // Appends one event to `component`'s ring, overwriting the oldest entry when full. The
  // timestamp is the current global sim time. Cold-path only: do not call per request.
  void Record(const char* component, const char* name, std::string detail = "");

  // Drops every ring and resets the sequence counter — call between experiment runs so
  // repeated runs produce identical dumps (the determinism contract).
  void Clear();

  uint64_t total_recorded() const { return total_recorded_; }
  size_t component_count() const { return rings_.size(); }
  // Events currently retained for `component` (<= capacity), oldest first. Empty for unknown
  // components.
  std::vector<FlightEvent> Events(const std::string& component) const;

  // Deterministic JSONL: a {"flight_dump":...} header, then each component's retained events
  // oldest-first, components in name order.
  void WriteJsonl(std::ostream& os, const std::string& reason) const;
  std::string DumpJsonl(const std::string& reason) const;

  // Crash/trigger dump. Writes to $SM_FLIGHT_OUT when set (pid-suffixed, see file comment);
  // otherwise dumps to stderr when `stderr_fallback` is true and does nothing when false.
  // Reentrancy-guarded: a failure inside the dump cannot recurse.
  void DumpOnTrigger(const char* reason, bool stderr_fallback);

 private:
  struct Ring {
    std::vector<FlightEvent> entries;  // size == capacity once full
    size_t capacity = kDefaultCapacity;
    size_t next = 0;       // overwrite cursor, valid once entries.size() == capacity
    uint64_t recorded = 0; // lifetime recordings into this ring
  };

  // Ordered map: dumps are sorted by component name, independent of first-record order.
  std::map<std::string, Ring> rings_;
  size_t capacity_ = kDefaultCapacity;
  uint64_t next_seq_ = 1;
  uint64_t total_recorded_ = 0;
  bool enabled_ = true;
  bool dumping_ = false;
};

// The process-wide recorder the SM_FLIGHT macro writes to. First use installs the SM_CHECK
// failure hook (see file comment). Never destroyed before exit.
FlightRecorder& DefaultFlightRecorder();

}  // namespace obs
}  // namespace shardman

// -- Instrumentation macro ---------------------------------------------------------------------
// `component` and `name` are string literals; `detail` is any expression convertible to
// std::string, evaluated only while recording is enabled.

#define SM_FLIGHT(component, name, ...)                                      \
  do {                                                                       \
    ::shardman::obs::FlightRecorder& sm_flight_recorder_ =                   \
        ::shardman::obs::DefaultFlightRecorder();                            \
    if (sm_flight_recorder_.enabled()) {                                     \
      sm_flight_recorder_.Record((component), (name), ##__VA_ARGS__);        \
    }                                                                        \
  } while (false)

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
