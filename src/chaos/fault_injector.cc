#include "src/chaos/fault_injector.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace shardman {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash:
      return "server-crash";
    case FaultKind::kRackPowerLoss:
      return "rack-power-loss";
    case FaultKind::kRegionPartition:
      return "region-partition";
    case FaultKind::kAsymmetricPartition:
      return "asymmetric-partition";
    case FaultKind::kLinkDegradation:
      return "link-degradation";
    case FaultKind::kWatchDelaySpike:
      return "watch-delay-spike";
    case FaultKind::kSessionExpiryStorm:
      return "session-expiry-storm";
    case FaultKind::kMapDeliveryLoss:
      return "map-delivery-loss";
    case FaultKind::kLeaderLoss:
      return "leader-loss";
    case FaultKind::kLeaderPartition:
      return "leader-partition";
    case FaultKind::kSmrReconfigure:
      return "smr-reconfigure";
  }
  return "unknown";
}

FaultInjector::FaultInjector(Testbed* testbed, ChaosConfig config, InvariantChecker* checker)
    : bed_(testbed), config_(std::move(config)), checker_(checker), rng_(config_.seed) {
  SM_CHECK(testbed != nullptr);
  SM_CHECK_GT(config_.mean_fault_interval, 0);
  SM_CHECK_GT(config_.min_duration, 0);
  SM_CHECK_LE(config_.min_duration, config_.max_duration);
  SM_CHECK_GT(config_.max_concurrent, 0);
  if (config_.mix.empty()) {
    for (FaultKind kind :
         {FaultKind::kServerCrash, FaultKind::kRackPowerLoss, FaultKind::kRegionPartition,
          FaultKind::kAsymmetricPartition, FaultKind::kLinkDegradation,
          FaultKind::kWatchDelaySpike, FaultKind::kSessionExpiryStorm,
          FaultKind::kLeaderLoss, FaultKind::kMapDeliveryLoss}) {
      mix_.push_back(FaultWeight{kind, 1.0});
    }
  } else {
    for (const FaultWeight& w : config_.mix) {
      SM_CHECK_GT(w.weight, 0.0);
      mix_.push_back(w);
    }
  }
}

void FaultInjector::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ScheduleNext();
}

void FaultInjector::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  bed_->sim().Cancel(next_timer_);
  // Heals for already-active faults stay scheduled: stopping the injector never leaves the
  // system permanently broken. The injector must outlive the remaining simulation.
}

void FaultInjector::ScheduleChaos(TimeMicros delay, SmallFunction cb) {
  ShardedSimulator& ssim = bed_->sharded_sim();
  if (ssim.num_shards() > 1) {
    // Faults mutate state shared across shards (network topology, coordination sessions), which
    // is only safe in the exclusive phase between windows, with every shard quiesced at a
    // common virtual time (DESIGN.md §13).
    ssim.ScheduleBarrierIn(delay, std::move(cb));
    return;
  }
  bed_->sim().Schedule(delay, std::move(cb));
}

void FaultInjector::ScheduleNext() {
  TimeMicros gap = static_cast<TimeMicros>(
      rng_.Exponential(static_cast<double>(config_.mean_fault_interval)));
  if (gap < 1) {
    gap = 1;
  }
  if (bed_->sharded_sim().num_shards() > 1) {
    // Barrier tasks cannot be cancelled; the running_ guard is what Stop() relies on here.
    ScheduleChaos(gap, [this]() {
      if (!running_) {
        return;
      }
      InjectOne();
      ScheduleNext();
    });
    return;
  }
  next_timer_ = bed_->sim().Schedule(gap, [this]() {
    InjectOne();
    if (running_) {
      ScheduleNext();
    }
  });
}

FaultKind FaultInjector::PickKind() {
  double total = 0.0;
  for (const FaultWeight& w : mix_) {
    total += w.weight;
  }
  double x = rng_.Uniform() * total;
  for (const FaultWeight& w : mix_) {
    x -= w.weight;
    if (x <= 0.0) {
      return w.kind;
    }
  }
  return mix_.back().kind;
}

void FaultInjector::InjectOne() {
  // Consume the kind and duration draws even when skipping, so the arrival schedule stays
  // aligned regardless of how previous faults resolved.
  FaultKind kind = PickKind();
  TimeMicros duration = rng_.UniformInt(config_.min_duration, config_.max_duration);
  if (active_faults_ >= config_.max_concurrent) {
    ++faults_skipped_;
    return;
  }
  bool injected = false;
  switch (kind) {
    case FaultKind::kServerCrash:
      injected = InjectServerCrash(duration);
      break;
    case FaultKind::kRackPowerLoss:
      injected = InjectRackPowerLoss(duration);
      break;
    case FaultKind::kRegionPartition:
      injected = InjectRegionPartition(duration);
      break;
    case FaultKind::kAsymmetricPartition:
      injected = InjectAsymmetricPartition(duration);
      break;
    case FaultKind::kLinkDegradation:
      injected = InjectLinkDegradation(duration);
      break;
    case FaultKind::kWatchDelaySpike:
      injected = InjectWatchDelaySpike(duration);
      break;
    case FaultKind::kSessionExpiryStorm:
      injected = InjectSessionExpiryStorm();
      break;
    case FaultKind::kMapDeliveryLoss:
      injected = InjectMapDeliveryLoss(duration);
      break;
    case FaultKind::kLeaderLoss:
      injected = InjectLeaderLoss();
      break;
    case FaultKind::kLeaderPartition:
      injected = InjectLeaderPartition(duration);
      break;
    case FaultKind::kSmrReconfigure:
      injected = InjectSmrReconfigure();
      break;
  }
  if (!injected) {
    ++faults_skipped_;
    SM_COUNTER_INC("sm.chaos.faults_skipped");
  }
}

int64_t FaultInjector::RecordInject(FaultKind kind, const std::string& detail) {
  int64_t id = next_fault_id_++;
  ++faults_injected_;
  SM_COUNTER_INC("sm.chaos.faults_injected");
  SM_TRACE_INSTANT("chaos", FaultKindName(kind),
                   obs::Arg("fault_id", id) + "," + obs::Arg("detail", detail));
  SM_FLIGHT("chaos", FaultKindName(kind), detail);
  journal_.push_back(ChaosEvent{bed_->sim().Now(), id, kind, false, detail});
  if (config_.dump_flight_on_fault) {
    obs::DefaultFlightRecorder().DumpOnTrigger(FaultKindName(kind), /*stderr_fallback=*/false);
  }
  return id;
}

void FaultInjector::ScheduleHeal(int64_t fault_id, FaultKind kind, TimeMicros after,
                                 std::string detail) {
  ++active_faults_;
  ScheduleChaos(after, [this, fault_id, kind, detail = std::move(detail)]() {
    SM_COUNTER_INC("sm.chaos.faults_healed");
    SM_TRACE_INSTANT("chaos", "heal",
                     obs::Arg("fault_id", fault_id) + "," +
                         obs::Arg("kind", std::string(FaultKindName(kind))));
    SM_FLIGHT("chaos", "heal", detail);
    journal_.push_back(ChaosEvent{bed_->sim().Now(), fault_id, kind, true, detail});
    --active_faults_;
  });
}

void FaultInjector::BracketUnplanned(TimeMicros heal_after) {
  if (checker_ == nullptr) {
    return;
  }
  checker_->PushUnplannedFault();
  ScheduleChaos(heal_after + config_.settle_after_heal,
                [this]() { checker_->PopUnplannedFault(); });
}

std::vector<RegionId> FaultInjector::EligiblePartitionRegions() const {
  std::vector<RegionId> out;
  for (int r = config_.partition_home_region ? 0 : 1; r < bed_->num_regions(); ++r) {
    if (partitioned_regions_.count(r) == 0) {
      out.push_back(RegionId(r));
    }
  }
  return out;
}

bool FaultInjector::InjectServerCrash(TimeMicros duration) {
  std::vector<ServerId> alive;
  for (ServerId id : bed_->servers()) {
    if (bed_->registry().IsAlive(id)) {
      alive.push_back(id);
    }
  }
  if (alive.empty()) {
    return false;
  }
  ServerId victim = rng_.Pick(alive);
  std::ostringstream os;
  os << "server=" << victim.value << " region=" << bed_->region_of(victim).value
     << " downtime=" << duration << "us";
  int64_t id = RecordInject(FaultKind::kServerCrash, os.str());
  // The cluster manager restarts the container itself after `duration`.
  bed_->cluster_manager(bed_->region_of(victim)).FailContainer(bed_->container_of(victim),
                                                               duration);
  BracketUnplanned(duration);
  ScheduleHeal(id, FaultKind::kServerCrash, duration,
               "server=" + std::to_string(victim.value) + " restarted");
  return true;
}

bool FaultInjector::InjectRackPowerLoss(TimeMicros duration) {
  const Topology& topo = bed_->topology();
  RegionId region(static_cast<int32_t>(rng_.UniformInt(0, bed_->num_regions() - 1)));
  const RegionInfo& info = topo.region(region);
  if (info.data_centers.empty()) {
    return false;
  }
  DataCenterId dc = rng_.Pick(info.data_centers);
  const DataCenterInfo& dc_info = topo.data_center(dc);
  if (dc_info.racks.empty()) {
    return false;
  }
  RackId rack = rng_.Pick(dc_info.racks);
  const RackInfo& rack_info = topo.rack(rack);
  std::ostringstream os;
  os << "region=" << region.value << " rack=" << rack.value
     << " machines=" << rack_info.machines.size() << " downtime=" << duration << "us";
  int64_t id = RecordInject(FaultKind::kRackPowerLoss, os.str());
  ClusterManager& cm = bed_->cluster_manager(region);
  for (MachineId machine : rack_info.machines) {
    cm.FailMachine(machine, duration);
  }
  BracketUnplanned(duration);
  ScheduleHeal(id, FaultKind::kRackPowerLoss, duration,
               "rack=" + std::to_string(rack.value) + " restored");
  return true;
}

bool FaultInjector::InjectRegionPartition(TimeMicros duration) {
  std::vector<RegionId> eligible = EligiblePartitionRegions();
  if (eligible.empty()) {
    return false;
  }
  RegionId region = rng_.Pick(eligible);
  std::ostringstream os;
  os << "region=" << region.value << " duration=" << duration << "us";
  int64_t id = RecordInject(FaultKind::kRegionPartition, os.str());
  bed_->network().PartitionRegion(region);
  partitioned_regions_.insert(region.value);
  ScheduleChaos(duration, [this, region]() {
    bed_->network().HealRegion(region);
    partitioned_regions_.erase(region.value);
  });
  ScheduleHeal(id, FaultKind::kRegionPartition, duration,
               "region=" + std::to_string(region.value) + " healed");
  return true;
}

bool FaultInjector::InjectAsymmetricPartition(TimeMicros duration) {
  std::vector<std::pair<int32_t, int32_t>> eligible;
  const int lo = config_.partition_home_region ? 0 : 1;
  for (int from = lo; from < bed_->num_regions(); ++from) {
    for (int to = lo; to < bed_->num_regions(); ++to) {
      if (from != to && blocked_links_.count({from, to}) == 0) {
        eligible.emplace_back(from, to);
      }
    }
  }
  if (eligible.empty()) {
    return false;
  }
  auto [from, to] = rng_.Pick(eligible);
  std::ostringstream os;
  os << "link=" << from << "->" << to << " duration=" << duration << "us";
  int64_t id = RecordInject(FaultKind::kAsymmetricPartition, os.str());
  bed_->network().BlockLink(RegionId(from), RegionId(to));
  blocked_links_.insert({from, to});
  ScheduleChaos(duration, [this, from = from, to = to]() {
    bed_->network().UnblockLink(RegionId(from), RegionId(to));
    blocked_links_.erase({from, to});
  });
  ScheduleHeal(id, FaultKind::kAsymmetricPartition, duration,
               "link=" + std::to_string(from) + "->" + std::to_string(to) + " unblocked");
  return true;
}

bool FaultInjector::InjectLinkDegradation(TimeMicros duration) {
  std::vector<std::pair<int32_t, int32_t>> eligible;
  for (int from = 0; from < bed_->num_regions(); ++from) {
    for (int to = 0; to < bed_->num_regions(); ++to) {
      if (from != to && degraded_links_.count({from, to}) == 0) {
        eligible.emplace_back(from, to);
      }
    }
  }
  if (eligible.empty()) {
    return false;
  }
  auto [from, to] = rng_.Pick(eligible);
  LinkQuality quality;
  quality.loss_probability = rng_.Uniform(0.0, config_.max_loss_probability);
  quality.duplicate_probability = rng_.Uniform(0.0, config_.max_duplicate_probability);
  quality.latency_multiplier = rng_.Uniform(1.0, config_.max_latency_multiplier);
  std::ostringstream os;
  os << "link=" << from << "->" << to << " loss=" << quality.loss_probability
     << " dup=" << quality.duplicate_probability << " lat_x=" << quality.latency_multiplier
     << " duration=" << duration << "us";
  int64_t id = RecordInject(FaultKind::kLinkDegradation, os.str());
  bed_->network().SetLinkQuality(RegionId(from), RegionId(to), quality);
  degraded_links_.insert({from, to});
  ScheduleChaos(duration, [this, from = from, to = to]() {
    bed_->network().ResetLink(RegionId(from), RegionId(to));
    degraded_links_.erase({from, to});
  });
  ScheduleHeal(id, FaultKind::kLinkDegradation, duration,
               "link=" + std::to_string(from) + "->" + std::to_string(to) + " reset");
  return true;
}

bool FaultInjector::InjectWatchDelaySpike(TimeMicros duration) {
  if (watch_spike_active_) {
    return false;
  }
  TimeMicros saved = bed_->coord().notify_delay();
  std::ostringstream os;
  os << "notify_delay=" << config_.watch_delay_spike << "us (was " << saved << "us) duration="
     << duration << "us";
  int64_t id = RecordInject(FaultKind::kWatchDelaySpike, os.str());
  watch_spike_active_ = true;
  bed_->coord().set_notify_delay(config_.watch_delay_spike);
  ScheduleChaos(duration, [this, saved]() {
    bed_->coord().set_notify_delay(saved);
    watch_spike_active_ = false;
  });
  ScheduleHeal(id, FaultKind::kWatchDelaySpike, duration, "notify delay restored");
  return true;
}

bool FaultInjector::InjectMapDeliveryLoss(TimeMicros duration) {
  if (map_loss_active_) {
    return false;
  }
  double probability = rng_.Uniform(0.05, config_.max_map_loss_probability);
  uint64_t loss_seed = rng_.Next();
  std::ostringstream os;
  os << "loss_probability=" << probability << " duration=" << duration << "us";
  int64_t id = RecordInject(FaultKind::kMapDeliveryLoss, os.str());
  map_loss_active_ = true;
  bed_->discovery().SetDeliveryLoss(probability, loss_seed);
  ScheduleChaos(duration, [this]() {
    bed_->discovery().SetDeliveryLoss(0.0, 0);
    map_loss_active_ = false;
  });
  ScheduleHeal(id, FaultKind::kMapDeliveryLoss, duration, "map deliveries reliable again");
  return true;
}

bool FaultInjector::InjectSessionExpiryStorm() {
  std::vector<ServerId> candidates;
  for (ServerId id : bed_->servers()) {
    SmLibrary* library = bed_->library_of(id);
    if (library != nullptr && library->connected()) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) {
    return false;
  }
  rng_.Shuffle(candidates);
  size_t count = std::min(candidates.size(), static_cast<size_t>(config_.storm_sessions));
  std::vector<ServerId> victims(candidates.begin(),
                                candidates.begin() + static_cast<ptrdiff_t>(count));
  std::ostringstream os;
  os << "servers=";
  for (ServerId id : victims) {
    os << id.value << ",";
  }
  os << " reconnect_after=" << config_.storm_reconnect_after << "us";
  int64_t id = RecordInject(FaultKind::kSessionExpiryStorm, os.str());
  bed_->ExpireServerSessions(victims, config_.storm_reconnect_after);
  BracketUnplanned(config_.storm_reconnect_after);
  ScheduleHeal(id, FaultKind::kSessionExpiryStorm, config_.storm_reconnect_after,
               "sessions reconnected");
  return true;
}

bool FaultInjector::InjectLeaderLoss() {
  ControlPlaneReplicaSet* set = bed_->replica_set();
  if (!set->has_leader()) {
    return false;
  }
  std::ostringstream os;
  os << "leader=" << set->leader_index() << " epoch=" << set->leadership_epoch()
     << " pending_ops=" << set->orchestrator().pending_ops();
  int64_t id = RecordInject(FaultKind::kLeaderLoss, os.str());
  set->KillLeader();
  // Self-healing: the replicas (a lone one included) re-elect on their own; no heal action is
  // needed, so the fault does not occupy a concurrency slot.
  journal_.push_back(
      ChaosEvent{bed_->sim().Now(), id, FaultKind::kLeaderLoss, true, "re-election under way"});
  return true;
}

bool FaultInjector::InjectLeaderPartition(TimeMicros duration) {
  ControlPlaneReplicaSet* set = bed_->replica_set();
  if (!set->has_leader() || bed_->num_regions() < 2) {
    return false;
  }
  const int leader = set->leader_index();
  const int32_t from = set->replica_region(leader).value;
  // Cut every outbound link from the leader's region that isn't already down — the gray-leader
  // scenario: the leader keeps running but can reach neither the store nor the servers.
  std::vector<int32_t> cut;
  for (int to = 0; to < bed_->num_regions(); ++to) {
    if (to != from && blocked_links_.count({from, to}) == 0) {
      cut.push_back(to);
    }
  }
  if (cut.empty()) {
    return false;
  }
  std::ostringstream os;
  os << "leader=" << leader << " region=" << from << " epoch=" << set->leadership_epoch()
     << " links_cut=" << cut.size() << " duration=" << duration << "us";
  int64_t id = RecordInject(FaultKind::kLeaderPartition, os.str());
  for (int32_t to : cut) {
    bed_->network().BlockLink(RegionId(from), RegionId(to));
    blocked_links_.insert({from, to});
  }
  // The coordination store times out the unreachable session shortly after the links die; the
  // isolated leader is fenced while the survivors elect a successor.
  ScheduleChaos(config_.leader_partition_session_ttl, [this, set, leader]() {
    LeaderLease* lease = set->lease(leader);
    if (lease != nullptr && lease->is_leader()) {
      lease->ExpireSession();
    }
  });
  ScheduleChaos(duration, [this, from, cut]() {
    for (int32_t to : cut) {
      bed_->network().UnblockLink(RegionId(from), RegionId(to));
      blocked_links_.erase({from, to});
    }
  });
  ScheduleHeal(id, FaultKind::kLeaderPartition, duration,
               "region=" + std::to_string(from) + " outbound links restored");
  return true;
}

bool FaultInjector::InjectSmrReconfigure() {
  ControlPlaneReplicaSet* set = bed_->replica_set();
  // Draws are consumed unconditionally (action, replica slot, region) so the rng stream stays
  // aligned whether or not the chosen action applies.
  const int64_t action = rng_.UniformInt(0, 2);
  const int64_t slot = rng_.UniformInt(0, 15);
  RegionId region(static_cast<int32_t>(rng_.UniformInt(0, bed_->num_regions() - 1)));
  std::ostringstream os;
  switch (action) {
    case 0: {
      int index = set->AddReplica(region);
      os << "add replica=" << index << " region=" << region.value;
      break;
    }
    case 1: {
      int index = static_cast<int>(slot) % std::max(1, set->num_replicas());
      Status status = set->RemoveReplica(index);
      if (!status.ok()) {
        return false;  // e.g. last replica, or the slot was already retired
      }
      os << "remove replica=" << index;
      break;
    }
    default: {
      int index = static_cast<int>(slot) % std::max(1, set->num_replicas());
      Status status = set->RelocateReplica(index, region);
      if (!status.ok()) {
        return false;
      }
      os << "relocate replica=" << index << " region=" << region.value;
      break;
    }
  }
  int64_t id = RecordInject(FaultKind::kSmrReconfigure, os.str());
  journal_.push_back(
      ChaosEvent{bed_->sim().Now(), id, FaultKind::kSmrReconfigure, true, "reconfigured"});
  return true;
}

std::string FaultInjector::JournalDump() const {
  std::ostringstream os;
  for (const ChaosEvent& event : journal_) {
    os << "t=" << event.time << "us #" << event.fault_id << " "
       << (event.heal ? "heal" : "inject") << " " << FaultKindName(event.kind) << ": "
       << event.detail << "\n";
  }
  return os.str();
}

}  // namespace shardman
