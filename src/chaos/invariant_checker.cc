#include "src/chaos/invariant_checker.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/core/sm_library.h"
#include "src/obs/obs.h"

namespace shardman {

InvariantChecker::InvariantChecker(Testbed* testbed, InvariantCheckerConfig config)
    : bed_(testbed), config_(config) {
  SM_CHECK(testbed != nullptr);
  SM_CHECK_GT(config_.sample_interval, 0);
}

void InvariantChecker::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  timer_ = bed_->sim().SchedulePeriodic(config_.sample_interval, config_.sample_interval,
                                        [this]() { CheckNow(); });
}

void InvariantChecker::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  bed_->sim().Cancel(timer_);
}

void InvariantChecker::PopUnplannedFault() {
  SM_CHECK_GT(unplanned_depth_, 0);
  --unplanned_depth_;
}

void InvariantChecker::Record(const std::string& invariant, const std::string& detail) {
  if (total_violations_ == 0 && context_fn_) {
    first_context_ = context_fn_();
  }
  ++total_violations_;
  SM_COUNTER_INC("sm.chaos.invariant_violations");
  SM_TRACE_INSTANT("chaos", "invariant_violation",
                   obs::Arg("invariant", invariant) + "," + obs::Arg("detail", detail));
  SM_FLIGHT("invariant", invariant.c_str(), detail);
  if (total_violations_ == 1) {
    // First violation of the run: snapshot the recent-event rings next to the violation (only
    // when $SM_FLIGHT_OUT names a destination — sweeps that tolerate violations stay quiet).
    obs::DefaultFlightRecorder().DumpOnTrigger("invariant_violation", /*stderr_fallback=*/false);
  }
  if (static_cast<int>(violations_.size()) < config_.max_recorded_violations) {
    violations_.push_back(InvariantViolation{bed_->sim().Now(), invariant, detail});
  }
}

void InvariantChecker::CheckNow() {
  ++samples_;
  if (config_.check_single_writer) {
    CheckSingleWriter();
  }
  if (config_.check_unavailability_cap) {
    CheckUnavailabilityCap();
  }
  if (config_.check_assignment_agreement) {
    CheckAssignmentAgreement();
  }
  if (config_.check_monotonic_versions) {
    CheckMonotonicVersions();
  }
  if (config_.check_coord_consistency) {
    CheckCoordConsistency();
  }
  if (config_.check_single_fenced_writer) {
    CheckSingleFencedWriter();
  }
  if (config_.check_key_closure) {
    CheckKeyClosure();
  }
}

void InvariantChecker::CheckKeyClosure() {
  const ShardMap* map = bed_->discovery().Current(bed_->spec().id);
  if (map == nullptr) {
    return;
  }
  // Non-empty ranges only: retired shards and uncommitted split children legitimately own no
  // keys. An app that publishes no ranges at all predates §15 and is exempt.
  std::vector<KeyRange> ranges;
  for (const ShardMapEntry& entry : map->entries) {
    if (!entry.range.empty()) {
      ranges.push_back(entry.range);
    }
  }
  if (ranges.empty()) {
    return;
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const KeyRange& a, const KeyRange& b) { return a.begin < b.begin; });
  uint64_t expected = 0;
  for (const KeyRange& range : ranges) {
    if (range.begin != expected) {
      std::ostringstream os;
      os << "map v" << map->version << (range.begin > expected ? " leaves keys [" : " overlaps [")
         << std::min(expected, range.begin) << ", " << std::max(expected, range.begin)
         << ") " << (range.begin > expected ? "unowned" : "doubly owned");
      Record("I8", os.str());
      return;
    }
    expected = range.end;
  }
  if (expected != ~uint64_t{0}) {
    std::ostringstream os;
    os << "map v" << map->version << " ends at " << expected << ", leaving the tail unowned";
    Record("I8", os.str());
  }
}

void InvariantChecker::CheckSingleFencedWriter() {
  const int writers = bed_->replica_set()->UnfencedWriters();
  if (writers > 1) {
    std::ostringstream os;
    os << writers << " orchestrator instances pass the write fence at epoch "
       << bed_->replica_set()->leadership_epoch();
    Record("I7", os.str());
  }
}

void InvariantChecker::CheckSingleWriter() {
  if (bed_->spec().strategy == ReplicationStrategy::kSecondaryOnly) {
    return;  // Every replica legitimately accepts writes.
  }
  // Gate on the container actually running, not on the orchestrator's liveness view: a server
  // whose session expired is exactly the gray-failed writer this invariant exists to catch.
  std::vector<ServerId> up;
  for (ServerId id : bed_->servers()) {
    if (bed_->cluster_manager(bed_->region_of(id)).IsUp(bed_->container_of(id))) {
      up.push_back(id);
    }
  }
  // The orchestrator's count, not the spec's: split children live beyond spec().num_shards().
  for (int s = 0; s < bed_->orchestrator().num_shards(); ++s) {
    ShardId shard(s);
    int writers = 0;
    std::ostringstream who;
    for (ServerId id : up) {
      ShardHostBase* app = bed_->app_server(id);
      if (app != nullptr && app->AcceptsDirectWrites(shard)) {
        ++writers;
        who << " server=" << id.value;
      }
    }
    if (writers > 1) {
      std::ostringstream os;
      os << "shard " << s << " has " << writers << " direct writers:" << who.str();
      Record("I1", os.str());
    }
  }
}

void InvariantChecker::CheckUnavailabilityCap() {
  if (unplanned_depth_ > 0) {
    return;  // Unplanned faults legitimately exceed the planned cap.
  }
  const int cap = bed_->spec().caps.max_unavailable_per_shard;
  for (int s = 0; s < bed_->orchestrator().num_shards(); ++s) {
    int down = bed_->orchestrator().DownReplicas(ShardId(s));
    if (down > cap) {
      std::ostringstream os;
      os << "shard " << s << " has " << down << " down replicas (cap " << cap << ")";
      Record("I2", os.str());
    }
  }
}

void InvariantChecker::CheckAssignmentAgreement() {
  for (int s = 0; s < bed_->orchestrator().num_shards(); ++s) {
    ShardId shard(s);
    const int replicas = bed_->orchestrator().ReplicaCount(shard);
    for (int r = 0; r < replicas; ++r) {
      if (bed_->orchestrator().replica_phase(shard, r) != ReplicaPhase::kReady) {
        continue;
      }
      ServerId server = bed_->orchestrator().replica_server(shard, r);
      if (!bed_->registry().IsAlive(server)) {
        continue;
      }
      ShardHostBase* app = bed_->app_server(server);
      if (app == nullptr || !app->Hosts(shard)) {
        std::ostringstream os;
        os << "shard " << s << " replica " << r << " is kReady on alive server " << server.value
           << " but the server does not host it";
        Record("I3", os.str());
      }
    }
  }
}

void InvariantChecker::CheckMonotonicVersions() {
  const ShardMap* map = bed_->discovery().Current(bed_->spec().id);
  if (map == nullptr) {
    return;
  }
  if (map->version < last_map_version_) {
    std::ostringstream os;
    os << "shard-map version went backwards: " << last_map_version_ << " -> " << map->version;
    Record("I5", os.str());
  }
  last_map_version_ = std::max(last_map_version_, map->version);
}

void InvariantChecker::CheckCoordConsistency() {
  for (ServerId id : bed_->servers()) {
    if (!bed_->registry().IsAlive(id)) {
      continue;
    }
    // The persisted view, as a sorted (shard, role) list. A missing node means "no assignment".
    std::vector<std::pair<int32_t, ReplicaRole>> persisted;
    Result<std::string> data =
        bed_->coord().Get("/sm/" + bed_->spec().name + "/assign/" + std::to_string(id.value));
    if (data.ok()) {
      for (const PersistedReplica& r : ParseAssignment(data.value())) {
        persisted.emplace_back(r.shard.value, r.role);
      }
    }
    std::vector<std::pair<int32_t, ReplicaRole>> in_memory;
    for (const auto& [shard, role] : bed_->orchestrator().ReplicasOn(id)) {
      in_memory.emplace_back(shard.value, role);
    }
    std::sort(persisted.begin(), persisted.end());
    std::sort(in_memory.begin(), in_memory.end());
    if (persisted != in_memory) {
      auto render = [](const std::vector<std::pair<int32_t, ReplicaRole>>& v) {
        std::ostringstream os;
        for (const auto& [shard, role] : v) {
          os << shard << (role == ReplicaRole::kPrimary ? "p" : "s") << " ";
        }
        return os.str();
      };
      std::ostringstream os;
      os << "server " << id.value << " persisted assignment {" << render(persisted)
         << "} != orchestrator view {" << render(in_memory) << "}";
      Record("I6", os.str());
    }
  }
}

bool InvariantChecker::AwaitReconvergence(TimeMicros timeout) {
  const TimeMicros deadline = bed_->sim().Now() + timeout;
  while (bed_->sim().Now() < deadline && !bed_->AllReady()) {
    bed_->sim().RunFor(Millis(200));
  }
  if (!bed_->AllReady()) {
    Record("I4", "system did not re-converge to all-ready within " +
                     std::to_string(timeout / 1000000) + "s");
    return false;
  }
  const int64_t before = total_violations_;
  CheckNow();
  return total_violations_ == before;
}

std::string InvariantChecker::Report() const {
  if (ok()) {
    return "";
  }
  std::ostringstream os;
  os << total_violations_ << " violation(s) across " << samples_ << " samples\n";
  for (const InvariantViolation& v : violations_) {
    os << "  t=" << v.time << "us " << v.invariant << ": " << v.detail << "\n";
  }
  if (!first_context_.empty()) {
    os << "context at first violation:\n" << first_context_;
  }
  return os.str();
}

}  // namespace shardman
