// Simulated wide-area network: inter-region latency matrix with jitter, used by every simulated
// RPC. One-way delivery only; request/response RPCs compose two Send() hops.
//
// Beyond clean delivery, the network models the failure spectrum the chaos engine injects:
//   * symmetric region partitions (PartitionRegion) — all traffic to/from the region drops;
//   * asymmetric partitions (BlockLink) — one direction of one region pair drops while the
//     reverse direction keeps delivering;
//   * gray link degradation (SetLinkQuality) — probabilistic loss, duplication and a latency
//     multiplier per directed region pair.
// All drops and duplications are accounted both globally and per region so tests can assert
// exactly where traffic was lost.

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/small_function.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"

namespace shardman {

// Base one-way latencies between regions. Intra-region traffic uses the diagonal.
class LatencyModel {
 public:
  // A symmetric model with `num_regions` regions: intra-region latency `local`, and inter-region
  // latency defaults to `wide`; individual pairs can be overridden with SetLatency.
  LatencyModel(int num_regions, TimeMicros local, TimeMicros wide);

  int num_regions() const { return num_regions_; }

  void SetLatency(RegionId a, RegionId b, TimeMicros latency);
  TimeMicros Latency(RegionId a, RegionId b) const;

 private:
  int num_regions_;
  std::vector<TimeMicros> matrix_;  // row-major num_regions x num_regions
};

// Gray-failure knobs for one directed region pair (applied from -> to only).
struct LinkQuality {
  double loss_probability = 0.0;       // each message independently dropped
  double duplicate_probability = 0.0;  // a second, independently jittered copy is delivered
  double latency_multiplier = 1.0;     // scales the base latency before jitter

  bool degraded() const {
    return loss_probability > 0.0 || duplicate_probability > 0.0 || latency_multiplier != 1.0;
  }
};

// Per-region traffic accounting. A message from A to B increments A.sent always; on drop it
// increments A.dropped_out and B.dropped_in; on delivery it increments B.delivered_in (twice
// when duplicated, plus A.duplicated once).
struct RegionNetStats {
  uint64_t sent = 0;
  uint64_t delivered_in = 0;
  uint64_t dropped_out = 0;
  uint64_t dropped_in = 0;
  uint64_t duplicated = 0;
};

// Delivers callbacks across the simulated network with latency + jitter. Region-level failures
// can be injected: messages to/from a failed region are dropped.
class Network {
 public:
  Network(Simulator* sim, LatencyModel model, uint64_t seed);

  Simulator* sim() const { return sim_; }
  const LatencyModel& latency_model() const { return model_; }

  // -- Sharded delivery mode (DESIGN.md §13) --------------------------------------------------
  //
  // Switches the network onto a ShardedSimulator: each region is owned by
  // `region_to_shard[region]`, sends execute on the sending region's shard against per-shard
  // lanes (own Rng fork, own counters, own RegionNetStats), and cross-shard deliveries travel
  // through the destination shard's mailbox. Determinism contract in sharded mode:
  //   * Send(from, ...) may only run on from's shard or in the exclusive phase;
  //   * topology mutators (partitions, blocks, link quality, jitter) and the stats accessors
  //     are exclusive-phase only (schedule faults via ShardedSimulator barrier tasks);
  //   * cross-shard LinkQuality latency multipliers must be >= 1 so no delivery undercuts the
  //     conservative lookahead bound.
  // The send path is the same in both modes; only the final delivery differs (the destination
  // shard's queue instead of `sim()`). Must be called before any traffic. `sharded->lookahead()`
  // must not exceed ShardedLookaheadBound for this model/placement/jitter (SM_CHECK enforced).
  void EnableShardedMode(ShardedSimulator* sharded, std::vector<int> region_to_shard);
  bool sharded() const { return sharded_ != nullptr; }

  // The largest safe lookahead for a placement: the minimum cross-shard one-way latency after
  // the worst-case downward jitter, with the same double->int truncation as the send path. Any
  // window width <= this bound guarantees cross-shard deliveries land beyond the window.
  static TimeMicros ShardedLookaheadBound(const LatencyModel& model,
                                          const std::vector<int>& region_to_shard,
                                          double jitter_fraction);

  // Schedules `deliver` after the (jittered) one-way latency from `from` to `to`, and returns
  // how many copies were scheduled: 0 when the message was dropped, 2 when it was duplicated.
  // Partitioned, blocked or lossy links drop the message (like a real network: silently for
  // the receiver, but accounted in the drop statistics). Both copies of a duplicated message
  // invoke the one `deliver`, so it must tolerate running twice.
  int Send(RegionId from, RegionId to, SmallFunction deliver);

  // Returns the expected one-way latency (no jitter) for latency accounting.
  TimeMicros ExpectedLatency(RegionId from, RegionId to) const { return model_.Latency(from, to); }

  // Symmetric region-level partition injection.
  void PartitionRegion(RegionId region);
  void HealRegion(RegionId region);
  bool IsPartitioned(RegionId region) const;

  // Asymmetric partition: drops messages flowing from -> to; the reverse direction is
  // unaffected. Orthogonal to the gray LinkQuality knobs.
  void BlockLink(RegionId from, RegionId to);
  void UnblockLink(RegionId from, RegionId to);
  bool LinkBlocked(RegionId from, RegionId to) const;

  // Gray degradation of one directed link. Overwrites the previous quality; ResetLink restores
  // the clean default. Does not touch BlockLink state.
  void SetLinkQuality(RegionId from, RegionId to, const LinkQuality& quality);
  void ResetLink(RegionId from, RegionId to);
  const LinkQuality& link_quality(RegionId from, RegionId to) const;

  // Fractional jitter applied uniformly in [1 - j, 1 + j] around base latency (default 0.1).
  // Exclusive-phase only in sharded mode (and before traffic, or the lookahead bound may break).
  void set_jitter_fraction(double j);
  double jitter_fraction() const { return jitter_fraction_; }

  // Every Send() attempt counts as sent, whether or not it is later dropped — so
  // messages_sent() >= messages_dropped() holds under any mix of partitions and loss.
  // These sum the lanes; in sharded mode they are exclusive-phase only.
  uint64_t messages_sent() const;
  uint64_t messages_dropped() const;
  uint64_t messages_duplicated() const;
  RegionNetStats region_stats(RegionId region) const;

 private:
  // Everything the send path mutates. An unsharded network has one lane; sharded mode has one
  // per shard plus one for the exclusive phase, so concurrent windows never share a cache line
  // of mutable state.
  struct Lane {
    explicit Lane(uint64_t seed, size_t num_regions) : rng(seed), region_stats(num_regions) {}
    Rng rng;
    uint64_t sent = 0;
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    std::vector<RegionNetStats> region_stats;
  };

  size_t LinkIndex(RegionId from, RegionId to) const;
  Lane& CurrentLane();
  // SM_CHECKs that no shard window is executing (mutators/stat reads in sharded mode).
  void CheckExclusivePhase() const;

  Simulator* sim_;
  LatencyModel model_;
  uint64_t seed_;
  double jitter_fraction_ = 0.1;
  std::vector<bool> partitioned_;
  std::vector<bool> blocked_;       // row-major directed from x to
  std::vector<LinkQuality> links_;  // row-major directed from x to

  ShardedSimulator* sharded_ = nullptr;
  std::vector<int> region_to_shard_;
  std::vector<Lane> lanes_;
};

}  // namespace shardman

#endif  // SRC_SIM_NETWORK_H_
