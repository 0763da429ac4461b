#include "src/smr/lease.h"

#include <string_view>
#include <utility>

#include "src/common/check.h"
#include "src/coord/record_codec.h"
#include "src/obs/obs.h"

namespace shardman {

namespace {

// Leader node payload is "<holder>:<epoch>"; the holder name may itself contain ':'. The epoch
// counter node holds the bare "<epoch>". Both are written with AppendDecimal and read with
// ParseDecimal; a payload without a well-formed epoch reads as epoch 0 (no leader). ParseEpoch
// runs on every fenced write, so it parses in place.
int64_t ParseEpoch(std::string_view data) {
  size_t pos = data.rfind(':');
  int64_t epoch = 0;
  if (pos == std::string_view::npos || !ParseDecimal(data.substr(pos + 1), &epoch)) {
    return 0;
  }
  return epoch;
}

std::string ParseHolder(std::string_view data) {
  size_t pos = data.rfind(':');
  return std::string(pos == std::string_view::npos ? std::string_view() : data.substr(0, pos));
}

}  // namespace

LeaderLease::LeaderLease(Simulator* sim, CoordStore* coord, std::string app_name,
                         std::string holder_name, LeaderLeaseConfig config)
    : sim_(sim),
      coord_(coord),
      leader_path_("/sm/" + app_name + "/smr/leader"),
      epoch_path_("/sm/" + app_name + "/smr/epoch"),
      holder_name_(std::move(holder_name)),
      config_(config) {
  SM_CHECK(sim != nullptr);
  SM_CHECK(coord != nullptr);
}

LeaderLease::~LeaderLease() {
  sim_->Cancel(rejoin_timer_);
  if (watch_id_ != 0) {
    coord_->Unwatch(watch_id_);
    watch_id_ = 0;
  }
}

void LeaderLease::Start(std::function<void()> on_acquired, std::function<void()> on_lost) {
  SM_CHECK(!started_);
  started_ = true;
  on_acquired_ = std::move(on_acquired);
  on_lost_ = std::move(on_lost);
  session_ = coord_->CreateSession();
  watch_id_ = coord_->Watch(leader_path_, [this](const WatchEvent& event) {
    if (stopped_ || event.type != WatchEventType::kDeleted) {
      return;
    }
    if (is_leader_) {
      // The node we held vanished: our session expired (or the node was deleted under us).
      HandleLoss();
    } else if (!rejoin_pending_) {
      TryAcquire();
    }
  });
  TryAcquire();
}

void LeaderLease::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  sim_->Cancel(rejoin_timer_);
  rejoin_pending_ = false;
  if (is_leader_) {
    is_leader_ = false;
    (void)coord_->Delete(leader_path_);  // successors learn through their deletion watches
  }
  if (watch_id_ != 0) {
    coord_->Unwatch(watch_id_);
    watch_id_ = 0;
  }
}

void LeaderLease::ExpireSession() {
  if (session_.valid() && coord_->SessionAlive(session_)) {
    coord_->ExpireSession(session_);
  }
}

void LeaderLease::HandleLoss() {
  is_leader_ = false;
  SM_COUNTER_INC("sm.smr.lease_losses");
  if (on_lost_) {
    on_lost_();
  }
  // Lease-TTL back-off: do not race for the lease we just lost until the rejoin delay has
  // elapsed, so a gray-failed leader cannot instantly reclaim it ahead of healthy replicas.
  if (rejoin_pending_) {
    return;
  }
  rejoin_pending_ = true;
  rejoin_timer_ = sim_->Schedule(config_.rejoin_delay, [this]() {
    rejoin_pending_ = false;
    TryAcquire();
  });
}

void LeaderLease::TryAcquire() {
  if (stopped_ || is_leader_) {
    return;
  }
  if (coord_->Exists(leader_path_)) {
    return;  // A leader holds the lease; our deletion watch covers its loss.
  }
  if (!session_.valid() || !coord_->SessionAlive(session_)) {
    session_ = coord_->CreateSession();
  }
  int64_t next_epoch = 1;
  Result<std::string> stored = coord_->Get(epoch_path_);
  if (stored.ok()) {
    int64_t last_epoch = 0;
    SM_CHECK(ParseDecimal(stored.value(), &last_epoch));
    next_epoch = last_epoch + 1;
  }
  std::string epoch_record;
  AppendDecimal(epoch_record, next_epoch);
  SM_CHECK_OK(coord_->Set(epoch_path_, epoch_record));
  Status created = coord_->Create(leader_path_, holder_name_ + ":" + epoch_record,
                                  /*ephemeral=*/true, session_);
  if (!created.ok()) {
    return;  // Lost the race; the new holder's eventual loss re-fires our watch.
  }
  is_leader_ = true;
  epoch_ = next_epoch;
  ++elections_won_;
  SM_COUNTER_INC("sm.smr.leader_elections");
  if (on_acquired_) {
    on_acquired_();
  }
}

std::function<bool(int64_t)> LeaderLease::MakeWriteFence(CoordStore* coord,
                                                         const std::string& app_name) {
  std::string path = "/sm/" + app_name + "/smr/leader";
  return [coord, path](int64_t epoch) {
    Result<std::string> data = coord->Get(path);
    return data.ok() && ParseEpoch(data.value()) == epoch;
  };
}

int64_t LeaderLease::CurrentEpoch(CoordStore* coord, const std::string& app_name) {
  Result<std::string> data = coord->Get("/sm/" + app_name + "/smr/leader");
  return data.ok() ? ParseEpoch(data.value()) : 0;
}

std::string LeaderLease::CurrentHolder(CoordStore* coord, const std::string& app_name) {
  Result<std::string> data = coord->Get("/sm/" + app_name + "/smr/leader");
  return data.ok() ? ParseHolder(data.value()) : std::string();
}

}  // namespace shardman
