// FaultInjector: a seeded, deterministic chaos engine driving a running Testbed.
//
// Faults are drawn from a weighted mix on an exponential interarrival clock and composed
// freely up to a concurrency bound; every fault has a bounded duration and heals itself. The
// palette spans the failure spectrum of a geo-distributed deployment:
//
//   crash-stop     server crash + restart, rack-wide power loss (every machine in one rack);
//   network        symmetric region partitions, asymmetric (one-way) partitions, and gray
//                  link degradation windows: elevated latency x loss x duplication;
//   coordination   watch-notification delay spikes (slow ZooKeeper) and session-expiry storms
//                  (several live servers lose their sessions within one notify window);
//   control plane  leader loss mid-churn: the leader's lease session expires with operations in
//                  flight and the next term reconciles from the coordination store and op log.
//
// Every injected fault and heal is appended to a journal; the same seed against the same
// testbed configuration reproduces the identical schedule, which the chaos tests assert
// bit-for-bit. The injector brackets crash-style faults on an attached InvariantChecker so the
// planned-unavailability cap (I2) is only enforced while the system is nominally healthy.

#ifndef SRC_CHAOS_FAULT_INJECTOR_H_
#define SRC_CHAOS_FAULT_INJECTOR_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/invariant_checker.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/workload/testbed.h"

namespace shardman {

enum class FaultKind {
  kServerCrash,
  kRackPowerLoss,
  kRegionPartition,
  kAsymmetricPartition,
  kLinkDegradation,
  kWatchDelaySpike,
  kSessionExpiryStorm,
  // The current control-plane leader's coordination-store session expires mid-term, operations
  // in flight or not. With one replica (the default) it re-elects itself after the lease
  // rejoin delay; with several a survivor takes over at once.
  kLeaderLoss,
  // Shard-map dissemination loss: deliveries drop with a sampled probability for the fault's
  // duration. Delta-mode subscribers develop version gaps and must recover via snapshot
  // fallback (DESIGN.md §10); snapshot-mode subscribers just run staler until the next publish.
  kMapDeliveryLoss,
  // Replica-set faults (DESIGN.md §11), not part of the default mix; SMR soak tests opt in
  // with an explicit mix.
  //   kLeaderPartition   asymmetric partition: every outbound link from the leader's region is
  //                      cut, then its session times out — the classic gray leader;
  //   kSmrReconfigure    online reconfiguration under churn: add, remove, or relocate a
  //                      control-plane replica without stopping placement.
  kLeaderPartition,
  kSmrReconfigure,
};

const char* FaultKindName(FaultKind kind);

struct FaultWeight {
  FaultKind kind;
  double weight = 1.0;
};

struct ChaosConfig {
  // Relative probabilities of each fault kind; empty selects every kind with weight 1.
  std::vector<FaultWeight> mix;
  // Faults arrive on an exponential clock with this mean (lower = more intense chaos).
  TimeMicros mean_fault_interval = Seconds(15);
  // Duration of each healing fault, uniform in [min_duration, max_duration].
  TimeMicros min_duration = Seconds(5);
  TimeMicros max_duration = Seconds(30);
  // At most this many faults active at once; arrivals beyond it are skipped (and journaled).
  int max_concurrent = 2;
  // Gray-link degradation is sampled up to these ceilings.
  double max_loss_probability = 0.3;
  double max_duplicate_probability = 0.1;
  double max_latency_multiplier = 8.0;
  // Slow-coordination-store fault: watch notifications take this long during the spike.
  TimeMicros watch_delay_spike = Millis(500);
  // Session-expiry storm: this many live servers expire at once, reconnecting after the delay.
  int storm_sessions = 3;
  TimeMicros storm_reconnect_after = Seconds(12);
  // Map-delivery loss windows sample a drop probability up to this ceiling.
  double max_map_loss_probability = 0.5;
  // Leader partition: how long after the outbound links die the leader's lease session is
  // expired (models the coordination store timing out the unreachable session).
  TimeMicros leader_partition_session_ttl = Seconds(1);
  // Whether full/partial partitions may touch region 0 (control plane + probe home).
  bool partition_home_region = false;
  // Unplanned-fault bracketing on the invariant checker is released this long after heal,
  // giving failover a moment to drain before the unavailability cap is enforced again.
  TimeMicros settle_after_heal = Seconds(2);
  // Dump the flight recorder (to $SM_FLIGHT_OUT) on every injected fault. Off by default:
  // faults are routine in chaos runs, so this is a debugging aid for bisecting a specific
  // fault's blast radius, not something sweeps want. Injections always record flight events
  // regardless.
  bool dump_flight_on_fault = false;
  uint64_t seed = 1;
};

struct ChaosEvent {
  TimeMicros time = 0;
  int64_t fault_id = 0;
  FaultKind kind = FaultKind::kServerCrash;
  bool heal = false;  // false = injection, true = heal
  std::string detail;
};

class FaultInjector {
 public:
  FaultInjector(Testbed* testbed, ChaosConfig config, InvariantChecker* checker = nullptr);

  void Start();
  void Stop();

  const std::vector<ChaosEvent>& journal() const { return journal_; }
  // One line per journal entry — the determinism fingerprint of a chaos run.
  std::string JournalDump() const;

  int64_t faults_injected() const { return faults_injected_; }
  int64_t faults_skipped() const { return faults_skipped_; }
  int active_faults() const { return active_faults_; }

 private:
  void ScheduleNext();
  void InjectOne();
  FaultKind PickKind();
  // Each returns false when no eligible target exists (the arrival is skipped).
  bool InjectServerCrash(TimeMicros duration);
  bool InjectRackPowerLoss(TimeMicros duration);
  bool InjectRegionPartition(TimeMicros duration);
  bool InjectAsymmetricPartition(TimeMicros duration);
  bool InjectLinkDegradation(TimeMicros duration);
  bool InjectWatchDelaySpike(TimeMicros duration);
  bool InjectSessionExpiryStorm();
  bool InjectMapDeliveryLoss(TimeMicros duration);
  bool InjectLeaderLoss();
  bool InjectLeaderPartition(TimeMicros duration);
  bool InjectSmrReconfigure();

  int64_t RecordInject(FaultKind kind, const std::string& detail);
  // Chaos timer hook: on a multi-shard testbed, fault arrivals and heals run as exclusive-phase
  // barrier tasks (faults mutate cross-shard shared state); on the classic single-shard testbed
  // this is a plain sim() schedule, so existing chaos journals stay byte-identical.
  void ScheduleChaos(TimeMicros delay, SmallFunction cb);
  void ScheduleHeal(int64_t fault_id, FaultKind kind, TimeMicros after, std::string detail);
  void BracketUnplanned(TimeMicros heal_after);
  std::vector<RegionId> EligiblePartitionRegions() const;

  Testbed* bed_;
  ChaosConfig config_;
  InvariantChecker* checker_;
  Rng rng_;
  std::vector<ChaosEvent> journal_;
  std::vector<FaultWeight> mix_;
  EventId next_timer_;
  bool running_ = false;
  int64_t next_fault_id_ = 1;
  int64_t faults_injected_ = 0;
  int64_t faults_skipped_ = 0;
  int active_faults_ = 0;
  bool watch_spike_active_ = false;
  bool map_loss_active_ = false;
  std::set<int32_t> partitioned_regions_;
  std::set<std::pair<int32_t, int32_t>> blocked_links_;
  std::set<std::pair<int32_t, int32_t>> degraded_links_;
};

}  // namespace shardman

#endif  // SRC_CHAOS_FAULT_INJECTOR_H_
