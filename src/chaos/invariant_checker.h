// InvariantChecker: continuous verification of the system-wide safety properties the soak and
// chaos tests rely on, lifted into a reusable component.
//
// Sampled invariants (a subset can be disabled per run):
//   I1  single direct-writer: at most one *running* server accepts direct writes for a shard
//       (§2.2.3). Checked across all servers whose container is up — including gray-failed
//       servers whose coordination-store session expired while the process kept serving, which
//       is exactly where double-writer bugs hide. Skipped for secondary-only applications.
//   I2  bounded planned unavailability: DownReplicas(shard) stays within the app's per-shard
//       cap (§4.1) whenever no unplanned fault is active (the injector brackets fault windows
//       via PushUnplannedFault/PopUnplannedFault; unplanned failures legitimately exceed it).
//   I3  assignment agreement: every kReady replica bound to an alive server is actually hosted
//       by that server's application process (no orchestrator/server divergence).
//   I4  re-convergence: after churn stops, the system returns to all-ready with a clean final
//       sample (AwaitReconvergence).
//   I5  monotonic shard maps: the published shard-map version never decreases — including
//       across control-plane failovers, where the replacement orchestrator must continue from
//       the persisted version.
//   I6  durable assignment consistency: for every alive server, the assignment persisted in the
//       coordination store equals the orchestrator's in-memory binding. The orchestrator
//       persists synchronously with every bind/role change, so strict equality holds between
//       simulator events.
//   I7  at most one fenced writer per app per epoch (DESIGN.md §11): at most one
//       orchestrator instance — across active and retired leaders — may hold a leadership
//       epoch whose writes still pass the fence. Two unfenced writers means a deposed leader
//       could still mutate coordination state.
//   I8  key-space closure: in every published shard map that carries ranges (DESIGN.md §15),
//       the non-empty ranges sorted by begin exactly partition [0, ~0ULL) — no key is ever
//       unroutable or doubly owned, including the instant a split or merge commit publishes.
//       Skipped for pre-§15 apps (maps with no ranges at all).
//
// The first violation captures a context string (typically the fault injector's journal) so a
// failure can be replayed from its chaos schedule.

#ifndef SRC_CHAOS_INVARIANT_CHECKER_H_
#define SRC_CHAOS_INVARIANT_CHECKER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/workload/testbed.h"

namespace shardman {

struct InvariantCheckerConfig {
  TimeMicros sample_interval = Millis(250);
  bool check_single_writer = true;          // I1
  bool check_unavailability_cap = true;     // I2
  bool check_assignment_agreement = true;   // I3
  bool check_monotonic_versions = true;     // I5
  bool check_coord_consistency = true;      // I6
  bool check_single_fenced_writer = true;   // I7
  bool check_key_closure = true;            // I8
  // Recording stops after this many violations (total_violations() keeps counting).
  int max_recorded_violations = 20;
};

struct InvariantViolation {
  TimeMicros time = 0;
  std::string invariant;  // "I1".."I8"
  std::string detail;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(Testbed* testbed, InvariantCheckerConfig config = {});

  // Starts/stops periodic sampling. CheckNow() may also be called directly at any time.
  void Start();
  void Stop();
  void CheckNow();

  // Unplanned-fault bracketing (see I2). Nested faults stack; the checker resumes enforcing
  // the cap when the depth returns to zero.
  void PushUnplannedFault() { ++unplanned_depth_; }
  void PopUnplannedFault();

  // Called once when the first violation is recorded; its return value (e.g. the chaos
  // journal) is stored alongside the violation for replay.
  void set_context_fn(std::function<std::string()> fn) { context_fn_ = std::move(fn); }

  // I4: runs the simulator until the orchestrator reports all-ready (or `timeout`), then takes
  // one final sample. Returns true iff converged and the final sample was clean.
  bool AwaitReconvergence(TimeMicros timeout);

  bool ok() const { return total_violations_ == 0; }
  int64_t total_violations() const { return total_violations_; }
  int64_t samples() const { return samples_; }
  const std::vector<InvariantViolation>& violations() const { return violations_; }
  const std::string& first_violation_context() const { return first_context_; }
  // Human-readable summary of all recorded violations (empty string when ok).
  std::string Report() const;

 private:
  void Record(const std::string& invariant, const std::string& detail);
  void CheckSingleWriter();
  void CheckUnavailabilityCap();
  void CheckAssignmentAgreement();
  void CheckMonotonicVersions();
  void CheckCoordConsistency();
  void CheckSingleFencedWriter();
  void CheckKeyClosure();

  Testbed* bed_;
  InvariantCheckerConfig config_;
  EventId timer_;
  bool running_ = false;
  int unplanned_depth_ = 0;
  int64_t last_map_version_ = -1;
  int64_t samples_ = 0;
  int64_t total_violations_ = 0;
  std::vector<InvariantViolation> violations_;
  std::string first_context_;
  std::function<std::string()> context_fn_;
};

}  // namespace shardman

#endif  // SRC_CHAOS_INVARIANT_CHECKER_H_
