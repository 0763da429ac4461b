#include "src/sim/network.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "src/obs/flight_recorder.h"

namespace shardman {

LatencyModel::LatencyModel(int num_regions, TimeMicros local, TimeMicros wide)
    : num_regions_(num_regions),
      matrix_(static_cast<size_t>(num_regions) * static_cast<size_t>(num_regions), wide) {
  SM_CHECK_GT(num_regions, 0);
  for (int r = 0; r < num_regions; ++r) {
    matrix_[static_cast<size_t>(r) * static_cast<size_t>(num_regions_) + static_cast<size_t>(r)] =
        local;
  }
}

void LatencyModel::SetLatency(RegionId a, RegionId b, TimeMicros latency) {
  SM_CHECK(a.valid() && a.value < num_regions_);
  SM_CHECK(b.valid() && b.value < num_regions_);
  matrix_[static_cast<size_t>(a.value) * static_cast<size_t>(num_regions_) +
          static_cast<size_t>(b.value)] = latency;
  matrix_[static_cast<size_t>(b.value) * static_cast<size_t>(num_regions_) +
          static_cast<size_t>(a.value)] = latency;
}

TimeMicros LatencyModel::Latency(RegionId a, RegionId b) const {
  SM_CHECK(a.valid() && a.value < num_regions_);
  SM_CHECK(b.valid() && b.value < num_regions_);
  return matrix_[static_cast<size_t>(a.value) * static_cast<size_t>(num_regions_) +
                 static_cast<size_t>(b.value)];
}

Network::Network(Simulator* sim, LatencyModel model, uint64_t seed)
    : sim_(sim),
      model_(std::move(model)),
      seed_(seed),
      partitioned_(static_cast<size_t>(model_.num_regions()), false),
      blocked_(static_cast<size_t>(model_.num_regions()) *
                   static_cast<size_t>(model_.num_regions()),
               false),
      links_(static_cast<size_t>(model_.num_regions()) *
             static_cast<size_t>(model_.num_regions())) {
  SM_CHECK(sim != nullptr);
  lanes_.emplace_back(seed_, static_cast<size_t>(model_.num_regions()));
}

size_t Network::LinkIndex(RegionId from, RegionId to) const {
  SM_CHECK(from.valid() && from.value < model_.num_regions());
  SM_CHECK(to.valid() && to.value < model_.num_regions());
  return static_cast<size_t>(from.value) * static_cast<size_t>(model_.num_regions()) +
         static_cast<size_t>(to.value);
}

void Network::CheckExclusivePhase() const {
  if (sharded_ != nullptr) {
    SM_CHECK_LT(sharded_->current_shard(), 0);
  }
}

Network::Lane& Network::CurrentLane() {
  if (sharded_ == nullptr) {
    return lanes_[0];
  }
  const int shard = sharded_->current_shard();
  return lanes_[static_cast<size_t>(shard < 0 ? sharded_->num_shards() : shard)];
}

void Network::set_jitter_fraction(double j) {
  CheckExclusivePhase();
  jitter_fraction_ = j;
}

TimeMicros Network::ShardedLookaheadBound(const LatencyModel& model,
                                          const std::vector<int>& region_to_shard,
                                          double jitter_fraction) {
  SM_CHECK_EQ(static_cast<int>(region_to_shard.size()), model.num_regions());
  TimeMicros bound = std::numeric_limits<TimeMicros>::max();
  for (int a = 0; a < model.num_regions(); ++a) {
    for (int b = 0; b < model.num_regions(); ++b) {
      if (region_to_shard[static_cast<size_t>(a)] == region_to_shard[static_cast<size_t>(b)]) {
        continue;
      }
      const TimeMicros base = model.Latency(RegionId{a}, RegionId{b});
      // Same truncation as the send path, so `delay >= bound` holds for any jitter factor in
      // [1 - j, 1 + j] by monotonicity of double multiplication and truncation.
      const TimeMicros worst =
          static_cast<TimeMicros>(static_cast<double>(base) * (1.0 - jitter_fraction));
      bound = std::min(bound, worst < 1 ? 1 : worst);
    }
  }
  return bound;  // max() when no pair crosses shards (single-shard placements)
}

void Network::EnableShardedMode(ShardedSimulator* sharded, std::vector<int> region_to_shard) {
  SM_CHECK(sharded != nullptr);
  SM_CHECK(sharded_ == nullptr);
  SM_CHECK_EQ(messages_sent(), 0u);  // must precede all traffic
  SM_CHECK_EQ(static_cast<int>(region_to_shard.size()), model_.num_regions());
  for (int shard : region_to_shard) {
    SM_CHECK(shard >= 0 && shard < sharded->num_shards());
  }
  if (sharded->num_shards() > 1) {
    const TimeMicros bound = ShardedLookaheadBound(model_, region_to_shard, jitter_fraction_);
    SM_CHECK_LE(sharded->lookahead(), bound);
  }
  sharded_ = sharded;
  region_to_shard_ = std::move(region_to_shard);
  // The per-shard lanes replace the unsharded lane. They fork from the network seed in lane
  // order: deterministic per seed, independent of which thread later runs each shard.
  Rng fork(seed_);
  lanes_.clear();
  lanes_.reserve(static_cast<size_t>(sharded->num_shards()) + 1);
  for (int i = 0; i <= sharded->num_shards(); ++i) {
    lanes_.emplace_back(fork.Next(), static_cast<size_t>(model_.num_regions()));
  }
}

namespace {

// A duplicated message runs one callback from two events: the copies share it.
struct SharedDelivery {
  std::shared_ptr<SmallFunction> deliver;
  void operator()() const { (*deliver)(); }
};

RegionNetStats* StatsFor(RegionId region, std::vector<RegionNetStats>& stats) {
  if (!region.valid() || static_cast<size_t>(region.value) >= stats.size()) {
    return nullptr;
  }
  return &stats[static_cast<size_t>(region.value)];
}

}  // namespace

int Network::Send(RegionId from, RegionId to, SmallFunction deliver) {
  Lane& lane = CurrentLane();
  const int src_shard = sharded_ != nullptr ? sharded_->current_shard() : -1;
  const bool link_known = from.valid() && from.value < model_.num_regions() && to.valid() &&
                          to.value < model_.num_regions();
  if (src_shard >= 0) {
    // The sending region's shard is the only place where this send is deterministic.
    SM_CHECK(link_known);
    SM_CHECK_EQ(region_to_shard_[static_cast<size_t>(from.value)], src_shard);
  }
  ++lane.sent;
  RegionNetStats* from_stats = StatsFor(from, lane.region_stats);
  RegionNetStats* to_stats = StatsFor(to, lane.region_stats);
  if (from_stats != nullptr) {
    ++from_stats->sent;
  }

  const LinkQuality* quality = link_known ? &links_[LinkIndex(from, to)] : nullptr;
  bool drop = IsPartitioned(from) || IsPartitioned(to) ||
              (link_known && blocked_[LinkIndex(from, to)]);
  if (!drop && quality != nullptr && quality->loss_probability > 0.0) {
    drop = lane.rng.Bernoulli(quality->loss_probability);
  }
  if (drop) {
    ++lane.dropped;
    if (from_stats != nullptr) {
      ++from_stats->dropped_out;
    }
    if (to_stats != nullptr) {
      ++to_stats->dropped_in;
    }
    return 0;
  }

  TimeMicros base = model_.Latency(from, to);
  if (quality != nullptr && quality->latency_multiplier != 1.0) {
    base = static_cast<TimeMicros>(static_cast<double>(base) * quality->latency_multiplier);
  }
  // Delivery is the one mode-dependent step: the destination shard's queue, or the simulator.
  int dest_shard = 0;
  if (sharded_ != nullptr) {
    dest_shard = link_known ? region_to_shard_[static_cast<size_t>(to.value)]
                            : std::max(src_shard, 0);
  }
  auto schedule = [this, &lane, base, dest_shard](SmallFunction&& fn) {
    const double factor = lane.rng.Uniform(1.0 - jitter_fraction_, 1.0 + jitter_fraction_);
    TimeMicros delay = static_cast<TimeMicros>(static_cast<double>(base) * factor);
    delay = delay < 1 ? 1 : delay;
    if (sharded_ != nullptr) {
      sharded_->Send(dest_shard, delay, std::move(fn));
    } else {
      sim_->Schedule(delay, std::move(fn));
    }
  };

  bool duplicate = quality != nullptr && quality->duplicate_probability > 0.0 &&
                   lane.rng.Bernoulli(quality->duplicate_probability);
  if (duplicate) {
    // Both copies race with independent jitter, like a retransmit-induced duplicate.
    SharedDelivery shared{std::make_shared<SmallFunction>(std::move(deliver))};
    schedule(SmallFunction(shared));
    deliver = std::move(shared);
    ++lane.duplicated;
    if (from_stats != nullptr) {
      ++from_stats->duplicated;
    }
    if (to_stats != nullptr) {
      ++to_stats->delivered_in;
    }
  }
  schedule(std::move(deliver));
  if (to_stats != nullptr) {
    ++to_stats->delivered_in;
  }
  return duplicate ? 2 : 1;
}

void Network::PartitionRegion(RegionId region) {
  CheckExclusivePhase();
  SM_CHECK(region.valid() && region.value < model_.num_regions());
  partitioned_[static_cast<size_t>(region.value)] = true;
  SM_FLIGHT("net", "partition_region", "r" + std::to_string(region.value));
}

void Network::HealRegion(RegionId region) {
  CheckExclusivePhase();
  SM_CHECK(region.valid() && region.value < model_.num_regions());
  partitioned_[static_cast<size_t>(region.value)] = false;
  SM_FLIGHT("net", "heal_region", "r" + std::to_string(region.value));
}

bool Network::IsPartitioned(RegionId region) const {
  if (!region.valid() || region.value >= model_.num_regions()) {
    return false;
  }
  return partitioned_[static_cast<size_t>(region.value)];
}

void Network::BlockLink(RegionId from, RegionId to) {
  CheckExclusivePhase();
  blocked_[LinkIndex(from, to)] = true;
  SM_FLIGHT("net", "block_link",
            "r" + std::to_string(from.value) + "->r" + std::to_string(to.value));
}

void Network::UnblockLink(RegionId from, RegionId to) {
  CheckExclusivePhase();
  blocked_[LinkIndex(from, to)] = false;
  SM_FLIGHT("net", "unblock_link",
            "r" + std::to_string(from.value) + "->r" + std::to_string(to.value));
}

bool Network::LinkBlocked(RegionId from, RegionId to) const {
  return blocked_[LinkIndex(from, to)];
}

void Network::SetLinkQuality(RegionId from, RegionId to, const LinkQuality& quality) {
  CheckExclusivePhase();
  if (sharded_ != nullptr &&
      region_to_shard_[static_cast<size_t>(from.value)] !=
          region_to_shard_[static_cast<size_t>(to.value)]) {
    // Speeding up a cross-shard link would let deliveries undercut the conservative lookahead
    // bound; gray degradation may only slow links down across shards.
    SM_CHECK_GE(quality.latency_multiplier, 1.0);
  }
  SM_CHECK_GE(quality.loss_probability, 0.0);
  SM_CHECK_LE(quality.loss_probability, 1.0);
  SM_CHECK_GE(quality.duplicate_probability, 0.0);
  SM_CHECK_LE(quality.duplicate_probability, 1.0);
  SM_CHECK_GT(quality.latency_multiplier, 0.0);
  links_[LinkIndex(from, to)] = quality;
  if (obs::DefaultFlightRecorder().enabled()) {
    char detail[96];
    std::snprintf(detail, sizeof(detail), "r%d->r%d loss=%.3f dup=%.3f lat_x=%.2f", from.value,
                  to.value, quality.loss_probability, quality.duplicate_probability,
                  quality.latency_multiplier);
    SM_FLIGHT("net", "set_link_quality", detail);
  }
}

void Network::ResetLink(RegionId from, RegionId to) {
  CheckExclusivePhase();
  links_[LinkIndex(from, to)] = LinkQuality{};
  SM_FLIGHT("net", "reset_link",
            "r" + std::to_string(from.value) + "->r" + std::to_string(to.value));
}

const LinkQuality& Network::link_quality(RegionId from, RegionId to) const {
  return links_[LinkIndex(from, to)];
}

uint64_t Network::messages_sent() const {
  CheckExclusivePhase();
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.sent;
  }
  return total;
}

uint64_t Network::messages_dropped() const {
  CheckExclusivePhase();
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.dropped;
  }
  return total;
}

uint64_t Network::messages_duplicated() const {
  CheckExclusivePhase();
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.duplicated;
  }
  return total;
}

RegionNetStats Network::region_stats(RegionId region) const {
  SM_CHECK(region.valid() && region.value < model_.num_regions());
  CheckExclusivePhase();
  RegionNetStats total;
  for (const Lane& lane : lanes_) {
    const RegionNetStats& s = lane.region_stats[static_cast<size_t>(region.value)];
    total.sent += s.sent;
    total.delivered_in += s.delivered_in;
    total.dropped_out += s.dropped_out;
    total.dropped_in += s.dropped_in;
    total.duplicated += s.duplicated;
  }
  return total;
}

}  // namespace shardman
