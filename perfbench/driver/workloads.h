// The four workloads. Each call runs one complete round — set-up, measured
// phase, output checks, teardown — on fresh systems built from the seed, so
// two rounds at one seed must produce byte-identical virtual-time results.

#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "driver/harness.h"
#include "src/core/system.h"

namespace perfbench {

struct RoundParams {
  std::uint64_t seed = 1;
  // Host threads staging clone batches in cluster_churn (the others stage
  // serially). Virtual-time results must not depend on it.
  unsigned staging_threads = 1;
};

RoundResult RunForkStorm(const RoundParams& params, Tracer& tracer);
RoundResult RunFaasRequests(const RoundParams& params, Tracer& tracer);
RoundResult RunNginxDatapath(const RoundParams& params, Tracer& tracer);
RoundResult RunClusterChurn(const RoundParams& params, Tracer& tracer);

// Runs one loop drain under a span, adding its events to the measured phase
// when the span is "sim.drain".
template <typename Fn>
std::size_t Drain(RoundResult& round, Tracer& tracer, const char* span, Fn&& run) {
  auto scope = tracer.Begin(span);
  const std::size_t events = run();
  if (std::string_view(span) == "sim.drain") {
    round.events += events;
  }
  return events;
}

// Fills the hypervisor/xenstore figures every workload reports from the end
// state of `host`: frames and MiB per live instance relative to
// `baseline_frames` (allocated frames of the empty host), sharing savings,
// and the Xenstore size.
void FillMemory(RoundResult& round, std::int64_t frames_allocated, std::int64_t baseline_frames,
                std::int64_t saved_by_sharing_frames, std::int64_t xenstore_entries,
                std::size_t live_instances);

// Per-op ratios from a measured-phase registry delta.
void FillPerOp(RoundResult& round, const RegistryDelta& delta, std::uint64_t ops);

// Clone-path figures from a measured-phase registry delta: pages, batches,
// Xenstore requests and device clones per clone.
void FillClonePath(RoundResult& round, const RegistryDelta& delta, std::uint64_t device_clones);

// Exact stage-1/stage-2 virtual durations (ns) harvested from a host's
// TraceRecorder, which is cleared so its bounded buffer never fills.
struct StageSamples {
  std::vector<double> stage1_ns;
  std::vector<double> stage2_ns;
  void Harvest(nephele::TraceRecorder& trace);
  void Fill(RoundResult& round) const;
};

// Device-clone fault-point hits of one host (devices/{net,p9,console,vbd}_clone).
std::uint64_t DeviceCloneHits(nephele::Host& host);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
