// ShardMap: the versioned shard -> (server, role) mapping disseminated to application clients.
//
// Delta dissemination (DESIGN.md §10): consecutive map versions usually differ in a handful of
// entries (one rebalance or failover touches O(changed) shards out of potentially millions), so
// the publish path can ship a ShardMapDelta — the changed rows only — instead of a full
// snapshot. DiffShardMaps/ApplyShardMapDelta are the canonical pair: applying the diff of
// (from, to) onto `from` must reproduce `to` exactly, a property tests/delta_property_test.cc
// holds byte-for-byte via SerializeShardMap.

#ifndef SRC_DISCOVERY_SHARD_MAP_H_
#define SRC_DISCOVERY_SHARD_MAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/allocator/types.h"
#include "src/common/ids.h"

namespace shardman {

struct ShardMapReplica {
  ServerId server;
  ReplicaRole role = ReplicaRole::kSecondary;
  RegionId region;  // denormalized for locality-aware routing

  friend bool operator==(const ShardMapReplica& a, const ShardMapReplica& b) {
    return a.server == b.server && a.role == b.role && a.region == b.region;
  }
  friend bool operator!=(const ShardMapReplica& a, const ShardMapReplica& b) {
    return !(a == b);
  }
};

struct ShardMapEntry {
  ShardId shard;
  // Key range this shard owns at this map version (DESIGN.md §15). Empty (begin == end) for
  // retired shards and split children that have not committed yet — such entries keep their
  // dense slot but receive no keys. Participates in equality so a range change alone (a
  // split/merge commit) produces a delta row even when the replica set is unchanged.
  KeyRange range;
  std::vector<ShardMapReplica> replicas;

  friend bool operator==(const ShardMapEntry& a, const ShardMapEntry& b) {
    return a.shard == b.shard && a.range == b.range && a.replicas == b.replicas;
  }
  friend bool operator!=(const ShardMapEntry& a, const ShardMapEntry& b) { return !(a == b); }
};

struct ShardMap {
  AppId app;
  int64_t version = 0;
  // Indexed by shard id value (dense shard ids per app).
  std::vector<ShardMapEntry> entries;

  const ShardMapEntry* Find(ShardId shard) const {
    if (!shard.valid() || static_cast<size_t>(shard.value) >= entries.size()) {
      return nullptr;
    }
    return &entries[static_cast<size_t>(shard.value)];
  }

  // The primary replica's server for a shard, or an invalid id.
  ServerId PrimaryOf(ShardId shard) const {
    const ShardMapEntry* entry = Find(shard);
    if (entry == nullptr) {
      return ServerId();
    }
    for (const ShardMapReplica& replica : entry->replicas) {
      if (replica.role == ReplicaRole::kPrimary) {
        return replica.server;
      }
    }
    return ServerId();
  }

  // Resolves a key against the published ranges by linear scan — the cold-path resolver for
  // tests and invariant checks (the router keeps a sorted index; see ServiceRouter). Returns
  // an invalid id when no entry's range contains the key, or when the map carries no ranges
  // at all (a pre-§15 map: every entry's range empty).
  ShardId ShardForKey(uint64_t key) const {
    for (const ShardMapEntry& entry : entries) {
      if (entry.range.Contains(key)) {
        return entry.shard;
      }
    }
    return ShardId();
  }
};

// The wire format of one delta publication: every entry whose replica set changed between
// `from_version` and `to_version`, carried as the complete new row (not a per-replica edit
// script — rows are small and a full row keeps apply idempotent per shard). `total_shards` is
// the entry count of the destination map so apply handles grow/shrink without a snapshot.
struct ShardMapDelta {
  AppId app;
  int64_t from_version = 0;
  int64_t to_version = 0;
  int64_t total_shards = 0;
  std::vector<ShardMapEntry> changed;
};

// Computes the delta from `from` to `to`. Both maps must belong to the same app.
// O(total shards) compares on the publisher, so subscribers can apply in O(changed).
ShardMapDelta DiffShardMaps(const ShardMap& from, const ShardMap& to);

// Applies `delta` to `map` in place. Returns false (leaving the map untouched) when the delta
// does not chain onto the map's version — the caller must recover via a full snapshot.
bool ApplyShardMapDelta(const ShardMapDelta& delta, ShardMap* map);

// Canonical byte serialization of a map (version, then every entry in index order). Two maps
// serialize identically iff they are semantically identical; the delta property suite compares
// delta-applied and snapshot-delivered maps through this.
std::string SerializeShardMap(const ShardMap& map);

// A subscriber's local copy of a disseminated map, copy-on-first-delta: a snapshot is aliased
// (the one shared immutable map, never copied); the first delta after it materializes a private
// copy that this and every later delta patch in place, so steady state costs O(changed) per
// version and one full copy per snapshot.
class ShardMapView {
 public:
  // Adopts a delivered snapshot, dropping any private copy.
  void Reset(std::shared_ptr<const ShardMap> snapshot);
  // Patches the view; SM_CHECKs that a snapshot was delivered and that the delta chains onto it.
  void Apply(const ShardMapDelta& delta);
  // The current map, or nullptr before the first snapshot.
  const ShardMap* map() const { return map_.get(); }

 private:
  std::shared_ptr<const ShardMap> map_;
  std::shared_ptr<ShardMap> owned_;  // the private copy map_ aliases once deltas flow, else null
};

}  // namespace shardman

#endif  // SRC_DISCOVERY_SHARD_MAP_H_
