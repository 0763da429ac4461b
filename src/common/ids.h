// Strongly typed integer identifiers for the entities managed by the framework.
//
// Using distinct types for regions, machines, servers, shards, etc. prevents an entire class of
// index-mixup bugs in placement code where everything would otherwise be an int.

#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <cstdint>
#include <functional>
#include <ostream>

namespace shardman {

// A strongly typed, hashable, orderable integer id. `Tag` is a phantom type.
//
// Ids are labels, not indices. Some are sparse: a testbed numbers containers (and so servers)
// region * 1,000,000 + 1 + n, so a table indexed by a raw server id spans millions of slots
// for a few dozen servers. Map an id to a dense ordinal of your own before indexing by it.
template <typename Tag>
struct Id {
  int32_t value = -1;

  Id() = default;
  explicit constexpr Id(int32_t v) : value(v) {}

  constexpr bool valid() const { return value >= 0; }

  friend constexpr bool operator==(Id a, Id b) { return a.value == b.value; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value != b.value; }
  friend constexpr bool operator<(Id a, Id b) { return a.value < b.value; }
  friend constexpr bool operator>(Id a, Id b) { return a.value > b.value; }
  friend constexpr bool operator<=(Id a, Id b) { return a.value <= b.value; }
  friend constexpr bool operator>=(Id a, Id b) { return a.value >= b.value; }

  friend std::ostream& operator<<(std::ostream& os, Id id) { return os << id.value; }
};

struct RegionTag {};
struct DataCenterTag {};
struct RackTag {};
struct MachineTag {};
struct ContainerTag {};
struct ServerTag {};   // An application server (== one container hosting shards).
struct AppTag {};
struct ShardTag {};    // Shard index within an application.
struct PartitionTag {};
struct MiniSmTag {};
struct SessionTag {};  // Coordination-store session.

using RegionId = Id<RegionTag>;
using DataCenterId = Id<DataCenterTag>;
using RackId = Id<RackTag>;
using MachineId = Id<MachineTag>;
using ContainerId = Id<ContainerTag>;
using ServerId = Id<ServerTag>;
using AppId = Id<AppTag>;
using ShardId = Id<ShardTag>;
using PartitionId = Id<PartitionTag>;
using MiniSmId = Id<MiniSmTag>;
using SessionId = Id<SessionTag>;

// Half-open key range [begin, end) over the application's 64-bit key space. A default
// (begin == end) range is *empty*: a shard carrying one owns no keys — the state of a
// retired/merged-away shard or a split child before its commit publish. Lives here (not in
// core/) because the disseminated ShardMap carries ranges and discovery/ must not depend on
// core/.
struct KeyRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  bool empty() const { return begin == end; }
  bool Contains(uint64_t key) const { return key >= begin && key < end; }

  friend bool operator==(const KeyRange& a, const KeyRange& b) {
    return a.begin == b.begin && a.end == b.end;
  }
  friend bool operator!=(const KeyRange& a, const KeyRange& b) { return !(a == b); }
};

// Identifies one replica of a shard: the shard plus a replica slot index.
struct ReplicaId {
  ShardId shard;
  int32_t index = 0;

  ReplicaId() = default;
  ReplicaId(ShardId s, int32_t i) : shard(s), index(i) {}

  friend bool operator==(const ReplicaId& a, const ReplicaId& b) {
    return a.shard == b.shard && a.index == b.index;
  }
  friend bool operator!=(const ReplicaId& a, const ReplicaId& b) { return !(a == b); }
  friend bool operator<(const ReplicaId& a, const ReplicaId& b) {
    if (a.shard != b.shard) {
      return a.shard < b.shard;
    }
    return a.index < b.index;
  }
  friend std::ostream& operator<<(std::ostream& os, const ReplicaId& r) {
    return os << r.shard << "/" << r.index;
  }
};

}  // namespace shardman

namespace std {

template <typename Tag>
struct hash<shardman::Id<Tag>> {
  size_t operator()(shardman::Id<Tag> id) const noexcept {
    return std::hash<int32_t>()(id.value);
  }
};

template <>
struct hash<shardman::ReplicaId> {
  size_t operator()(const shardman::ReplicaId& r) const noexcept {
    return std::hash<int64_t>()((static_cast<int64_t>(r.shard.value) << 16) ^ r.index);
  }
};

}  // namespace std

#endif  // SRC_COMMON_IDS_H_
