#include "src/discovery/shard_map.h"

#include <sstream>
#include <utility>

#include "src/common/check.h"

namespace shardman {

ShardMapDelta DiffShardMaps(const ShardMap& from, const ShardMap& to) {
  SM_CHECK(from.app == to.app);
  ShardMapDelta delta;
  delta.app = to.app;
  delta.from_version = from.version;
  delta.to_version = to.version;
  delta.total_shards = static_cast<int64_t>(to.entries.size());
  const size_t common = from.entries.size() < to.entries.size() ? from.entries.size()
                                                                : to.entries.size();
  for (size_t i = 0; i < common; ++i) {
    if (from.entries[i] != to.entries[i]) {
      delta.changed.push_back(to.entries[i]);
    }
  }
  // Entries past the old map's end are all new (grow); shrink is conveyed by total_shards.
  for (size_t i = common; i < to.entries.size(); ++i) {
    delta.changed.push_back(to.entries[i]);
  }
  return delta;
}

bool ApplyShardMapDelta(const ShardMapDelta& delta, ShardMap* map) {
  SM_CHECK(map != nullptr);
  if (map->app != delta.app || map->version != delta.from_version) {
    return false;
  }
  map->entries.resize(static_cast<size_t>(delta.total_shards));
  for (const ShardMapEntry& entry : delta.changed) {
    SM_CHECK(entry.shard.valid());
    SM_CHECK_LT(entry.shard.value, delta.total_shards);
    map->entries[static_cast<size_t>(entry.shard.value)] = entry;
  }
  map->version = delta.to_version;
  return true;
}

std::string SerializeShardMap(const ShardMap& map) {
  std::ostringstream os;
  os << "app=" << map.app.value << " v=" << map.version << " n=" << map.entries.size() << "\n";
  for (const ShardMapEntry& entry : map.entries) {
    os << entry.shard.value << "[" << entry.range.begin << "," << entry.range.end << "):";
    for (const ShardMapReplica& replica : entry.replicas) {
      os << " " << replica.server.value << "/"
         << (replica.role == ReplicaRole::kPrimary ? "p" : "s") << "/" << replica.region.value;
    }
    os << "\n";
  }
  return os.str();
}

void ShardMapView::Reset(std::shared_ptr<const ShardMap> snapshot) {
  map_ = std::move(snapshot);
  owned_.reset();
}

void ShardMapView::Apply(const ShardMapDelta& delta) {
  SM_CHECK(map_ != nullptr);  // a delta only ever chains onto a delivered snapshot
  if (owned_ == nullptr) {
    owned_ = std::make_shared<ShardMap>(*map_);
    map_ = owned_;
  }
  SM_CHECK(ApplyShardMapDelta(delta, owned_.get()));
}

}  // namespace shardman
