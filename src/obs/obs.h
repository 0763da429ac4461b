// Umbrella header for telemetry: the metrics registry, the lifecycle tracer, the per-request
// RED accountant and the crash-dump flight recorder. Instrumented code includes this and uses
// the SM_COUNTER_* / SM_GAUGE_* / SM_HISTOGRAM_* / SM_TRACE_* / SM_FLIGHT macros. There is one
// build flavour: metrics always record, and only tracing and the flight recorder are switched,
// at run time. The RED accountant has no macros: the gray-failure scorer and the split planner
// decide from it, so its callers record through its API.

#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/request_accounting.h"
#include "src/obs/trace.h"

#endif  // SRC_OBS_OBS_H_
