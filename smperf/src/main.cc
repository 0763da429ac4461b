// smperf: runs one benchmark workload once in this process and prints one result line,
//   SMPERF_RESULT {"exact":{...},"timing":{...},"steps_ms":[...],"checks":[...],...}
// `exact` holds simulated outcomes and counts (identical for the same code and seed);
// `timing` holds wall and CPU measurements. smperf/run.py runs this binary several times per
// benchmark run and aggregates.
//
// Usage: smperf --workload hotspot_flash|rolling_upgrade --seed N
//               [--trace 0|1] [--small] [--spans PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "smperf/src/common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: smperf --workload hotspot_flash|rolling_upgrade --seed N "
               "[--trace 0|1] [--small] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  smperf::Options options;
  options.process_start_ns = smperf::WallNs();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else if (arg == "--small") {
      options.small = true;
    } else {
      return Usage();
    }
  }
  if (options.trace) {
    smperf::Tracer::Enable();
    smperf::Tracer::MarkMainThread();
  }

  smperf::Report report;
  if (options.workload == "hotspot_flash") {
    smperf::RunHotspotFlash(options, report);
  } else if (options.workload == "rolling_upgrade") {
    smperf::RunRollingUpgrade(options, report);
  } else {
    return Usage();
  }
  report.timing["peak_rss_mb"] = smperf::PeakRssMb();
  report.timing["process.cpu_s"] = smperf::ProcessCpuSeconds();
  report.timing["process.wall_s"] =
      static_cast<double>(smperf::WallNs() - options.process_start_ns) / 1e9;

  if (options.trace) {
    const std::vector<smperf::SpanRecord> spans = smperf::Tracer::Collect();
    smperf::AddSpanTiming(spans, report);
    report.exact["trace.spans"] = static_cast<double>(spans.size());
    if (!options.spans_path.empty()) {
      report.Expect("trace.spans_written", smperf::WriteSpans(spans, options.spans_path),
                    options.spans_path);
    }
  }
  std::cout << "SMPERF_RESULT " << report.ToJson() << std::endl;
  return 0;
}
