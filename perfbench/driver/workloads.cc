#include "driver/workloads.h"

#include "src/base/units.h"

namespace perfbench {

void FillMemory(RoundResult& round, std::int64_t frames_allocated, std::int64_t baseline_frames,
                std::int64_t saved_by_sharing_frames, std::int64_t xenstore_entries,
                std::size_t live_instances) {
  constexpr double kMiB = 1024.0 * 1024.0;
  const double page = static_cast<double>(nephele::kPageSize);
  const double frames = live_instances == 0
                            ? 0
                            : static_cast<double>(frames_allocated - baseline_frames) /
                                  static_cast<double>(live_instances);
  round.sim["hypervisor.frames_per_instance"] = {frames, live_instances};
  round.sim["mem_mib_per_instance"] = {frames * page / kMiB, live_instances};
  round.sim["hypervisor.saved_by_sharing_mib"] = {
      static_cast<double>(saved_by_sharing_frames) * page / kMiB, 1};
  round.sim["xenstore.entries_end"] = {static_cast<double>(xenstore_entries), 1};
}

void FillPerOp(RoundResult& round, const RegistryDelta& delta, std::uint64_t ops) {
  const double n = ops == 0 ? 1 : static_cast<double>(ops);
  round.sim["hypervisor.cow_faults_per_op"] = {
      static_cast<double>(delta.Counter("hypervisor/cow/faults")) / n, ops};
  round.sim["hypervisor.hypercalls_per_op"] = {
      static_cast<double>(delta.Counter("hypervisor/hypercalls")) / n, ops};
  round.sim["xenstore.log_rotations"] = {
      static_cast<double>(delta.Counter("xenstore/log/rotations")), 1};
}

void FillClonePath(RoundResult& round, const RegistryDelta& delta, std::uint64_t device_clones) {
  const std::uint64_t clones = delta.Counter("clone/clones_total");
  const std::uint64_t batches = delta.Counter("clone/batches_total");
  const double n = clones == 0 ? 1 : static_cast<double>(clones);
  round.sim["core.pages_shared_per_clone"] = {
      static_cast<double>(delta.Counter("clone/stage1/pages_shared")) / n, clones};
  round.sim["core.pages_copied_per_clone"] = {
      static_cast<double>(delta.Counter("clone/stage1/pages_private_copied")) / n, clones};
  round.sim["core.batch_size_mean"] = {
      batches == 0 ? 0 : static_cast<double>(clones) / static_cast<double>(batches), batches};
  round.sim["xenstore.requests_per_clone"] = {
      static_cast<double>(delta.Counter("xenstore/requests/total")) / n, clones};
  round.sim["devices.clones_per_clone"] = {static_cast<double>(device_clones) / n, clones};
}

void StageSamples::Harvest(nephele::TraceRecorder& trace) {
  for (const nephele::TraceEvent& e : trace.events()) {
    const double d = static_cast<double>((e.end - e.start).ns());
    if (e.name == "clone/stage1") {
      stage1_ns.push_back(d);
    } else if (e.name == "clone/stage2") {
      stage2_ns.push_back(d);
    }
  }
  trace.Clear();
}

void StageSamples::Fill(RoundResult& round) const {
  round.sim["core.stage1_sim_ms_p50"] = {Quantile(stage1_ns, 0.50) / 1e6, stage1_ns.size()};
  round.sim["xencloned.stage2_sim_ms_p50"] = {Quantile(stage2_ns, 0.50) / 1e6,
                                              stage2_ns.size()};
  round.sim["xencloned.stage2_sim_ms_p99"] = {Quantile(stage2_ns, 0.99) / 1e6,
                                              stage2_ns.size()};
}

std::uint64_t DeviceCloneHits(nephele::Host& host) {
  const nephele::FaultInjector& f = host.fault_injector();
  return f.HitCount("devices/net_clone") + f.HitCount("devices/p9_clone") +
         f.HitCount("devices/console_clone") + f.HitCount("devices/vbd_clone");
}

}  // namespace perfbench
