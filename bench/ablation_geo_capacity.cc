// Ablation: hardware capacity — regional duplicate deployments vs. one geo-distributed
// deployment (§2.2.2, Fig. 3, and the AdEvents case study of §2.5).
//
// To survive a whole-region outage, a regionally deployed application must keep a complete
// standby copy in another region (2x capacity at R=2; the paper notes owners "often
// over-provision duplicate copies of regional deployments ahead of time"). A geo-distributed
// deployment instead redistributes the failed region's shards across the surviving regions'
// headroom: the required provisioning is R/(R-1) of the working set.
//
// The table computes both, then validates the geo claim mechanically: a geo testbed survives a
// region failure with every shard re-placed and no server over capacity. Shards are whole, so
// each surviving server must fit ceil(shards / survivors) of them; the testbed is sized for that
// packing plus 5% slack, and the bench prints the factor packing needs next to R/(R-1). The two
// agree when the shards divide evenly over the survivors (the default 120). The AdEvents
// anchor — "SM helped reduce their machine usage by 67%" — comes from replacing per-region
// duplicate deployments with one geo deployment at several regions.

#include <iostream>

#include "bench/bench_util.h"
#include "src/workload/testbed.h"

using namespace shardman;
using namespace shardman::bench;

int main() {
  PrintHeader("Ablation: capacity cost of regional vs. geo-distributed deployments",
              "§2.2.2 / Fig. 3 / §2.5 AdEvents (67% machine-usage reduction)");

  // Analytic provisioning factors to survive one region outage, normalized to the working set.
  std::cout << "Provisioning (x working-set capacity) to survive one region outage:\n";
  TablePrinter table({"regions", "regional_duplicates", "geo_distributed", "geo_savings_%"});
  for (int regions = 2; regions <= 10; ++regions) {
    // Regional: every region holds a full copy (the paper's historic pattern: "many
    // applications started with duplicate regional deployments in every region").
    double regional = static_cast<double>(regions);
    double geo = static_cast<double>(regions) / (regions - 1);
    table.AddRowValues(regions, FormatDouble(regional, 2), FormatDouble(geo, 2),
                       FormatDouble(100.0 * (1.0 - geo / regional), 1));
  }
  table.Print(std::cout);
  std::cout << "AdEvents anchor: duplicate deployments in 3 regions -> one geo deployment = "
            << FormatDouble(100.0 * (1.0 - 1.5 / 3.0), 0)
            << "% fewer machines (paper reports 67%).\n\n";

  // Mechanical check of the geo side: a 3-region testbed provisioned for the packing a region
  // failure needs survives it: all shards re-placed, all servers within capacity.
  const int regions = 3;
  const int shards = std::max(30, static_cast<int>(120 * BenchScale()));
  TestbedConfig config;
  config.regions = {"r0", "r1", "r2"};
  config.servers_per_region = 6;
  config.app = MakeUniformAppSpec(AppId(1), "geocap", shards,
                                  ReplicationStrategy::kPrimaryOnly, 1);
  config.app.placement.metrics = MetricSet({"cpu"});
  // Each survivor holds ceil(shards / survivors) whole shards, with 5% slack on top.
  const double per_shard_load = 10.0;
  const int survivors = (regions - 1) * config.servers_per_region;
  const int shards_per_survivor = (shards + survivors - 1) / survivors;
  const double per_server = shards_per_survivor * per_shard_load * 1.05;
  const double packing_factor = static_cast<double>(shards_per_survivor) * regions *
                                config.servers_per_region / shards;
  config.server_capacity = ResourceVector{per_server};
  config.shard_load_scalars.assign(static_cast<size_t>(shards), per_shard_load);
  config.mini_sm.orchestrator.failover_grace = Seconds(5);
  config.seed = 7;
  Testbed bed(config);
  bed.Start();
  SM_CHECK(bed.RunUntilAllReady(Minutes(5)));
  bed.sim().RunFor(Minutes(1));

  std::cout << "Geo testbed: " << shards << " shards, 3 regions, per-server capacity "
            << FormatDouble(per_server, 1) << "; packing needs "
            << FormatDouble(packing_factor, 2) << "x the working set (R/(R-1) = "
            << FormatDouble(static_cast<double>(regions) / (regions - 1), 2)
            << "x), provisioned " << FormatDouble(packing_factor * 1.05, 2) << "x\n";
  bed.FailRegion(RegionId(0));
  bed.sim().RunFor(Minutes(2));
  bool all_placed = bed.RunUntilAllReady(Minutes(5));
  int overloaded = 0;
  for (ServerId id : bed.servers()) {
    if (!bed.registry().IsAlive(id)) {
      continue;
    }
    double load = 0.0;
    ShardLoadReport report;
    bed.app_server(id)->ReportLoads(report);
    for (const auto& entry : report.entries) {
      load += entry.load[0];
    }
    if (load > per_server + 1e-6) {
      ++overloaded;
    }
  }
  std::cout << "after region failure: all shards re-placed = " << (all_placed ? "yes" : "NO")
            << ", servers over capacity = " << overloaded << "\n";
  std::cout << "\nExpected shape: geo needs R/(R-1)x vs. regional's Rx, plus packing slack when "
               "shards do not divide evenly over the survivors; the geo testbed absorbs a full "
               "region loss within its headroom.\n";
  return all_placed && overloaded == 0 ? 0 : 1;
}
