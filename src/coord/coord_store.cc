#include "src/coord/coord_store.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace shardman {

CoordStore::CoordStore(Simulator* sim, TimeMicros notify_delay)
    : sim_(sim), notify_delay_(notify_delay) {}

SessionId CoordStore::CreateSession() {
  SessionId id(next_session_++);
  sessions_[id.value] = true;
  return id;
}

void CoordStore::ExpireSession(SessionId session) {
  auto it = sessions_.find(session.value);
  if (it == sessions_.end() || !it->second) {
    return;
  }
  it->second = false;
  auto nodes_it = session_nodes_.find(session.value);
  if (nodes_it != session_nodes_.end()) {
    std::vector<std::string> paths = std::move(nodes_it->second);
    session_nodes_.erase(nodes_it);
    for (const std::string& path : paths) {
      auto node_it = nodes_.find(path);
      if (node_it != nodes_.end() && node_it->second.ephemeral &&
          node_it->second.owner == session) {
        nodes_.erase(node_it);
        FireEvent(WatchEventType::kDeleted, path, "");
      }
    }
  }
}

void CoordStore::ExpireSessions(const std::vector<SessionId>& sessions) {
  for (SessionId session : sessions) {
    ExpireSession(session);
  }
}

bool CoordStore::SessionAlive(SessionId session) const {
  auto it = sessions_.find(session.value);
  return it != sessions_.end() && it->second;
}

Status CoordStore::Create(const std::string& path, std::string data, bool ephemeral,
                          SessionId owner) {
  auto [it, inserted] = nodes_.try_emplace(path);
  if (!inserted) {
    return AlreadyExistsError("node exists: " + path);
  }
  if (ephemeral) {
    if (!SessionAlive(owner)) {
      nodes_.erase(it);
      return FailedPreconditionError("ephemeral node requires live session: " + path);
    }
    session_nodes_[owner.value].push_back(path);
  }
  Node& node = it->second;
  node.data = std::move(data);
  node.ephemeral = ephemeral;
  node.owner = owner;
  FireEvent(WatchEventType::kCreated, path, node.data);  // copied before any callback runs
  return Status::Ok();
}

Status CoordStore::Set(const std::string& path, std::string data, bool upsert) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    if (!upsert) {
      return NotFoundError("node missing: " + path);
    }
    return Create(path, std::move(data));
  }
  it->second.data = std::move(data);
  ++it->second.version;
  FireEvent(WatchEventType::kChanged, path, it->second.data);
  return Status::Ok();
}

Result<std::string> CoordStore::Get(const std::string& path) const {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return NotFoundError("node missing: " + path);
  }
  return it->second.data;
}

Status CoordStore::Delete(const std::string& path) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return NotFoundError("node missing: " + path);
  }
  nodes_.erase(it);
  FireEvent(WatchEventType::kDeleted, path, "");
  return Status::Ok();
}

bool CoordStore::Exists(const std::string& path) const { return nodes_.count(path) > 0; }

Result<int64_t> CoordStore::GetVersion(const std::string& path) const {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return NotFoundError("node missing: " + path);
  }
  return it->second.version;
}

std::vector<std::string> CoordStore::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = nodes_.lower_bound(prefix); it != nodes_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    out.push_back(it->first);
  }
  return out;
}

int64_t CoordStore::Watch(const std::string& prefix, WatchCallback cb) {
  int64_t id = next_watch_++;
  watchers_[id] = Watcher{prefix, std::move(cb)};
  return id;
}

void CoordStore::Unwatch(int64_t watch_id) { watchers_.erase(watch_id); }

void CoordStore::FireEvent(WatchEventType type, const std::string& path,
                           const std::string& data) {
  // Snapshot matching watch ids first: a callback may mutate the watcher set.
  std::vector<int64_t> to_fire;
  for (const auto& [id, watcher] : watchers_) {
    if (path.compare(0, watcher.prefix.size(), watcher.prefix) == 0) {
      to_fire.push_back(id);
    }
  }
  if (to_fire.empty()) {
    return;
  }
  WatchEvent event{type, path, data};
  if (sim_ != nullptr) {
    // The watcher is re-resolved at delivery time so that Unwatch also cancels in-flight
    // notifications — the callback's owner may be gone by then (see Unwatch contract).
    for (int64_t id : to_fire) {
      sim_->Schedule(notify_delay_, [this, id, event]() {
        auto it = watchers_.find(id);
        if (it != watchers_.end()) {
          it->second.cb(event);
        }
      });
    }
  } else {
    for (int64_t id : to_fire) {
      auto it = watchers_.find(id);
      if (it != watchers_.end()) {
        it->second.cb(event);
      }
    }
  }
}

}  // namespace shardman
