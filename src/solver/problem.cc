#include "src/solver/problem.h"

#include <algorithm>

namespace shardman {

void SolverProblem::Validate() const {
  SM_CHECK_GT(num_metrics, 0);
  const size_t bins = static_cast<size_t>(num_bins());
  const size_t entities = static_cast<size_t>(num_entities());
  SM_CHECK_EQ(bin_capacity.size(), bins * static_cast<size_t>(num_metrics));
  SM_CHECK_EQ(bin_dc.size(), bins);
  SM_CHECK_EQ(bin_rack.size(), bins);
  SM_CHECK_EQ(bin_draining.size(), bins);
  SM_CHECK_EQ(bin_alive.size(), bins);
  SM_CHECK_EQ(entity_load.size(), entities * static_cast<size_t>(num_metrics));
  SM_CHECK_EQ(assignment.size(), entities);
  for (size_t b = 0; b < bins; ++b) {
    SM_CHECK_GE(bin_region[b], 0);
    SM_CHECK_LT(bin_region[b], num_regions);
    SM_CHECK_GE(bin_dc[b], 0);
    SM_CHECK_LT(bin_dc[b], num_dcs);
    SM_CHECK_GE(bin_rack[b], 0);
    SM_CHECK_LT(bin_rack[b], num_racks);
  }
  for (size_t e = 0; e < entities; ++e) {
    SM_CHECK_GE(assignment[e], -1);
    SM_CHECK_LT(assignment[e], num_bins());
  }
}

int SolverProblem::AddBin(const std::vector<double>& capacity, int32_t region, int32_t dc,
                          int32_t rack) {
  if (num_metrics == 0) {
    num_metrics = static_cast<int>(capacity.size());
  }
  SM_CHECK_EQ(static_cast<int>(capacity.size()), num_metrics);
  bin_capacity.insert(bin_capacity.end(), capacity.begin(), capacity.end());
  bin_region.push_back(region);
  bin_dc.push_back(dc);
  bin_rack.push_back(rack);
  bin_draining.push_back(0);
  bin_alive.push_back(1);
  num_regions = std::max(num_regions, region + 1);
  num_dcs = std::max(num_dcs, dc + 1);
  num_racks = std::max(num_racks, rack + 1);
  return num_bins() - 1;
}

int SolverProblem::AddEntity(const std::vector<double>& load, int32_t group,
                             int32_t assigned_bin) {
  SM_CHECK_EQ(static_cast<int>(load.size()), num_metrics);
  entity_load.insert(entity_load.end(), load.begin(), load.end());
  entity_group.push_back(group);
  assignment.push_back(assigned_bin);
  return num_entities() - 1;
}

void SolverProblem::Clear() {
  num_metrics = 0;
  bin_capacity.clear();
  bin_region.clear();
  bin_dc.clear();
  bin_rack.clear();
  bin_draining.clear();
  bin_alive.clear();
  entity_load.clear();
  entity_group.clear();
  assignment.clear();
  num_regions = 0;
  num_dcs = 0;
  num_racks = 0;
}

}  // namespace shardman
