// Traced run: per-layer metrics for one workload (see trace.cc).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include "bench.h"
#include "workloads.h"

namespace perfbench {

/// Set up `w`, run its untraced phase for the counts, replay a sample
/// of its statements layer by layer, and report every per-layer metric.
void RunTraced(Workload* w, const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
