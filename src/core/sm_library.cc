#include "src/core/sm_library.h"

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/coord/record_codec.h"
#include "src/obs/obs.h"

namespace shardman {

namespace {
// The longest entry: two 11-character int32 fields, two ':', the role letter and the ';'.
constexpr size_t kMaxEntryChars = 26;
}  // namespace

std::string SerializeAssignment(std::span<const PersistedReplica> replicas) {
  std::string out;
  out.reserve(replicas.size() * kMaxEntryChars);
  for (const PersistedReplica& r : replicas) {
    AppendDecimal(out, r.shard.value);
    out += ':';
    AppendDecimal(out, r.replica);
    out += ':';
    out += r.role == ReplicaRole::kPrimary ? 'p' : 's';
    out += ';';
  }
  return out;
}

std::vector<PersistedReplica> ParseAssignment(std::string_view data) {
  std::vector<PersistedReplica> out;
  std::string_view entry;
  while (NextField(&data, ';', &entry)) {
    std::string_view shard;
    std::string_view replica;
    PersistedReplica parsed;
    if (!NextField(&entry, ':', &shard) || !NextField(&entry, ':', &replica) ||
        !ParseDecimal(shard, &parsed.shard.value) || !ParseDecimal(replica, &parsed.replica) ||
        (entry != "p" && entry != "s")) {
      continue;  // malformed entry: skip it, keep the rest of the record
    }
    parsed.role = entry == "p" ? ReplicaRole::kPrimary : ReplicaRole::kSecondary;
    out.push_back(parsed);
  }
  return out;
}

SmLibrary::SmLibrary(CoordStore* coord, std::string app_name, ServerId server,
                     ShardServerApi* self)
    : coord_(coord), app_name_(std::move(app_name)), server_(server), self_(self) {
  SM_CHECK(coord != nullptr);
  SM_CHECK(self != nullptr);
}

std::string SmLibrary::LivenessPath() const {
  return "/sm/" + app_name_ + "/live/" + std::to_string(server_.value);
}

std::string SmLibrary::AssignmentPath() const {
  return "/sm/" + app_name_ + "/assign/" + std::to_string(server_.value);
}

void SmLibrary::Connect() {
  if (connected()) {
    return;
  }
  session_ = coord_->CreateSession();
  SM_COUNTER_INC("sm.smlib.connects");
  SM_TRACE_INSTANT("smlib", "connect", obs::Arg("server", static_cast<int64_t>(server_.value)));
  Status status = coord_->Create(LivenessPath(), "up", /*ephemeral=*/true, session_);
  if (!status.ok()) {
    SM_LOG(Warning) << "liveness node creation failed: " << status.ToString();
  }
}

void SmLibrary::Disconnect() {
  if (!connected()) {
    return;
  }
  coord_->ExpireSession(session_);
  session_ = SessionId();
}

bool SmLibrary::connected() const { return session_.valid() && coord_->SessionAlive(session_); }

void SmLibrary::OnSessionExpired() {
  session_ = SessionId();
  SM_COUNTER_INC("sm.smlib.session_expiries");
  SM_TRACE_INSTANT("smlib", "session_expired",
                   obs::Arg("server", static_cast<int64_t>(server_.value)));
  // Fence: drop primary-ship on everything the coordination store says we were primary for.
  // The persisted assignment is the authoritative pre-expiry view; local state may match or
  // may already be ahead (mid-migration), so demotion errors are ignored.
  Result<std::string> data = coord_->Get(AssignmentPath());
  if (!data.ok()) {
    return;
  }
  for (const PersistedReplica& replica : ParseAssignment(data.value())) {
    if (replica.role == ReplicaRole::kPrimary) {
      SM_COUNTER_INC("sm.smlib.fence_demotions");
      (void)self_->ChangeRole(replica.shard, ReplicaRole::kPrimary, ReplicaRole::kSecondary);
    }
  }
}

int SmLibrary::RestoreAssignmentFromCoord() {
  Result<std::string> data = coord_->Get(AssignmentPath());
  if (!data.ok()) {
    return 0;
  }
  int restored = 0;
  for (const PersistedReplica& replica : ParseAssignment(data.value())) {
    Status status = self_->AddShard(replica.shard, replica.role);
    if (status.ok()) {
      ++restored;
    }
  }
  SM_COUNTER_ADD("sm.smlib.restored_shards", restored);
  if (restored > 0) {
    SM_TRACE_INSTANT("smlib", "restored_assignment",
                     obs::Arg("server", static_cast<int64_t>(server_.value)) + "," +
                         obs::Arg("shards", static_cast<int64_t>(restored)));
  }
  return restored;
}

}  // namespace shardman
