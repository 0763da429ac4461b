// Figure 16 reproduction: the scale of the mini-SMs that manage the fleet.
//
// Paper (§8.1, §6.1): the sampled application population is divided into partitions by the
// application registry and assigned to mini-SMs by the partition registry; production runs 139
// regional and 48 geo-distributed mini-SMs, the largest managing ~50K servers and ~1.3M shards.
// This bench feeds the Fig. 15 population through the actual control-plane registries and
// reports the resulting per-mini-SM scatter and counts.

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "src/core/control_plane.h"
#include "src/workload/population.h"

using namespace shardman;
using namespace shardman::bench;

int main() {
  PrintHeader("Fig 16: scale of regional and geo-distributed mini-SMs",
              "§8.1, Figure 16 — 139 regional + 48 geo mini-SMs; largest ~50K servers / ~1.3M "
              "shards");

  Rng rng(16);
  PopulationConfig population_config;
  std::vector<AppDeploymentSample> population = SampleAppPopulation(population_config, rng);

  // Production-calibrated caps: the largest mini-SM manages ~50K servers / ~1.3M replicas.
  PartitionRegistry partitions(/*max_servers_per_mini_sm=*/50000,
                               /*max_replicas_per_mini_sm=*/1300000,
                               /*comfort_servers=*/8000);
  ApplicationRegistry apps(&partitions, /*max_servers_per_partition=*/4000,
                           /*max_replicas_per_partition=*/400000);
  Frontend frontend(&apps);

  int32_t next_app = 0;
  for (const AppDeploymentSample& sample : population) {
    frontend.RegisterApp(AppId(next_app++), sample.servers, sample.shards,
                         sample.geo_distributed);
  }

  ReadService reads(&partitions);
  std::cout << "mini-SM scatter (servers,shards,geo):\n";
  TablePrinter scatter({"servers", "shards", "geo"});
  int regional = 0;
  int geo = 0;
  int64_t max_servers = 0;
  int64_t max_shards = 0;
  for (const MiniSmInfo& info : partitions.mini_sms()) {
    scatter.AddRowValues(info.servers, info.shard_replicas, info.geo_distributed ? 1 : 0);
    (info.geo_distributed ? geo : regional) += 1;
    max_servers = std::max(max_servers, info.servers);
    max_shards = std::max(max_shards, info.shard_replicas);
  }
  scatter.PrintCsv(std::cout);

  std::cout << "\nSummary vs. paper anchors:\n";
  TablePrinter summary({"statistic", "model", "paper"});
  summary.AddRowValues(std::string("regional_mini_sms"), regional, std::string("139"));
  summary.AddRowValues(std::string("geo_mini_sms"), geo, std::string("48"));
  summary.AddRowValues(std::string("largest_mini_sm_servers"), max_servers,
                       std::string("~50000"));
  summary.AddRowValues(std::string("largest_mini_sm_shards"), max_shards, std::string("~1.3M"));
  summary.AddRowValues(std::string("total_partitions"), apps.partitions().size(),
                       std::string("-"));
  summary.Print(std::cout);

  return 0;
}
