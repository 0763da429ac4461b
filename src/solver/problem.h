// The assignment problem solved by the constraint solver: N entities (shard replicas) placed on
// M bins (application servers), with per-metric loads and capacities and fault-domain labels.
//
// The representation is deliberately flat (structure-of-arrays) — the solver evaluates millions
// of candidate moves per second and the inner loops must be cache-friendly. The SM allocator
// (src/allocator) translates application-level snapshots into this form.

#ifndef SRC_SOLVER_PROBLEM_H_
#define SRC_SOLVER_PROBLEM_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace shardman {

// Fault-domain scope levels used by spread/affinity/balance specs.
enum class DomainScope {
  kGlobal,
  kRegion,
  kDataCenter,
  kRack,
  kBin,
};

struct SolverProblem {
  int num_metrics = 0;

  // ---- Bins (application servers) -----------------------------------------------------------
  // bin_capacity[bin * num_metrics + m] is the capacity of bin in metric m.
  std::vector<double> bin_capacity;
  std::vector<int32_t> bin_region;
  std::vector<int32_t> bin_dc;
  std::vector<int32_t> bin_rack;
  // Bins being drained (pending maintenance / upgrade): entities on them are violations.
  std::vector<uint8_t> bin_draining;
  // Dead bins cannot receive entities, and entities on them count as unavailable.
  std::vector<uint8_t> bin_alive;

  // ---- Entities (shard replicas) -------------------------------------------------------------
  // entity_load[e * num_metrics + m] is the load of entity e in metric m.
  std::vector<double> entity_load;
  // Group id shared by replicas of the same shard (-1 = ungrouped); exclusion (spread) and
  // region-affinity goals operate on groups.
  std::vector<int32_t> entity_group;
  // Current assignment: bin index per entity, or -1 for unassigned.
  std::vector<int32_t> assignment;

  int num_regions = 0;
  int num_dcs = 0;
  int num_racks = 0;

  int num_bins() const { return static_cast<int>(bin_region.size()); }
  int num_entities() const { return static_cast<int>(entity_group.size()); }

  double capacity(int bin, int m) const {
    return bin_capacity[static_cast<size_t>(bin) * static_cast<size_t>(num_metrics) +
                        static_cast<size_t>(m)];
  }
  double load(int entity, int m) const {
    return entity_load[static_cast<size_t>(entity) * static_cast<size_t>(num_metrics) +
                       static_cast<size_t>(m)];
  }

  int32_t DomainOf(int bin, DomainScope scope) const {
    switch (scope) {
      case DomainScope::kGlobal:
        return 0;
      case DomainScope::kRegion:
        return bin_region[static_cast<size_t>(bin)];
      case DomainScope::kDataCenter:
        return bin_dc[static_cast<size_t>(bin)];
      case DomainScope::kRack:
        return bin_rack[static_cast<size_t>(bin)];
      case DomainScope::kBin:
        return bin;
    }
    return 0;
  }

  int NumDomains(DomainScope scope) const {
    switch (scope) {
      case DomainScope::kGlobal:
        return 1;
      case DomainScope::kRegion:
        return num_regions;
      case DomainScope::kDataCenter:
        return num_dcs;
      case DomainScope::kRack:
        return num_racks;
      case DomainScope::kBin:
        return num_bins();
    }
    return 1;
  }

  // Sanity-checks internal consistency (sizes, ids in range). Aborts on violation.
  void Validate() const;

  // Convenience builder helpers.
  int AddBin(const std::vector<double>& capacity, int32_t region, int32_t dc, int32_t rack);
  int AddEntity(const std::vector<double>& load, int32_t group, int32_t assigned_bin = -1);
  // Empties the problem (no bins, no entities, no metrics) but keeps every array's storage, so
  // a problem rebuilt every round allocates only when it grows.
  void Clear();
};

struct SolverMove {
  int32_t entity = -1;
  int32_t from = -1;  // -1: was unassigned
  int32_t to = -1;
};

}  // namespace shardman

#endif  // SRC_SOLVER_PROBLEM_H_
