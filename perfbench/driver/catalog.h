// The benchmark's metric and workload catalog: every metric the driver can
// print, with its unit, clock, layer and the end-to-end metric it should
// move. BENCHMARK.json names a subset (`manifest`): the end-to-end metrics
// of untraced runs and the per-layer metrics of traced runs that every
// workload measures. run.py checks that the two lists agree.

#ifndef PERFBENCH_DRIVER_CATALOG_H_
#define PERFBENCH_DRIVER_CATALOG_H_

#include <vector>

namespace perfbench {

enum class Clock { kSim, kWall };
enum class Kind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  Clock clock;
  Kind kind;
  // True when BENCHMARK.json lists the metric (and every workload emits it).
  bool manifest;
  const char* better;  // "lower" | "higher" | "" (no direction)
  // Per-layer metrics: the end-to-end metric it should move and on which
  // workloads. Empty for end-to-end metrics.
  const char* moves;
  const char* meaning;
};

struct WorkloadSpec {
  const char* name;
  const char* loop;  // "sequential" | "open loop" | "closed loop" | "cycles"
  const char* why;
  // Traced runs add rounds with min(4, host CPUs) staging threads and
  // report core.parallel_staging_x.
  bool parallel_staging;
};

const std::vector<MetricSpec>& Metrics();
const std::vector<WorkloadSpec>& Workloads();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_CATALOG_H_
