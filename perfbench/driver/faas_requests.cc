// faas_requests: seeded open-loop Poisson arrivals from LoadGenerator into
// RequestCloneDispatcher (d=2, 8 servers) over heavy requests (E[S] ~4.5 ms:
// 2048 pages, 100 9p RPCs, 50 packets) at target utilisation 0.60, with a
// warm pool of 16 filled during set-up. One op runs from a request's
// scheduled arrival to its first response; the first 200 responses (the
// cold-start transient) are excluded from the latency samples.

#include <string>

#include "driver/workloads.h"
#include "src/hypervisor/invariants.h"
#include "src/load/dispatch.h"
#include "src/load/load_gen.h"
#include "src/sched/scheduler.h"

namespace perfbench {

using namespace nephele;

namespace {

constexpr unsigned kServers = 8;
constexpr unsigned kWarmPool = 16;
constexpr double kUtilisation = 0.60;
constexpr long kWindowMs = 60000;          // simulated arrival window
constexpr long kChunkMs = 100;             // host-trace harvest interval
constexpr std::size_t kTransient = 200;    // cold-start responses dropped

SystemConfig FaasConfig(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 1024 * 1024;
  cfg.sched.warm_pool_capacity = kWarmPool;
  cfg.sched.max_queue_depth = 64;
  cfg.load.clone_factor = 2;
  cfg.load.max_concurrent = kServers;
  cfg.load.seed = StreamSeed(seed, 2);
  cfg.load.service_pages = 2048;
  cfg.load.service_p9_rpcs = 100;
  cfg.load.service_net_packets = 50;
  const double mean_service_s =
      RequestCloneDispatcher::MeanServiceTime(cfg.load, cfg.costs).ToSeconds();
  cfg.load.arrival.rate_rps = kUtilisation * kServers / mean_service_s;
  return cfg;
}

}  // namespace

RoundResult RunFaasRequests(const RoundParams& params, Tracer& tracer) {
  RoundResult round;

  // --- Set-up: host, parent, and a full warm pool. ---
  const std::int64_t setup_start = HostNowNs();
  NepheleSystem system(FaasConfig(params.seed));
  tracer.Bind(&system.loop());
  CloneScheduler sched(system);
  RequestCloneDispatcher dispatcher(system, sched);
  LoadGenerator generator(system);
  const MetricsRegistry& m = system.metrics();
  const std::int64_t baseline_frames = m.GaugeValue("hypervisor/frames/allocated");
  DomainConfig dcfg;
  dcfg.name = "faas-parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 512;
  dcfg.with_vif = true;
  Result<DomId> parent = [&] {
    auto launch = tracer.Begin("toolstack.launch");
    auto dom = system.toolstack().CreateDomain(dcfg);
    Drain(round, tracer, "sim.settle_setup", [&] { return system.loop().Run(); });
    return dom;
  }();
  round.Check(parent.ok(), "parent boot failed");
  if (!parent.ok()) {
    return round;
  }
  const std::int64_t parent_frames = m.GaugeValue("hypervisor/frames/allocated");
  std::vector<DomId> warm;
  {
    auto scope = tracer.Begin("sched.warm_up");
    (void)sched.Acquire(CloneRequest(kDom0, *parent, kInvalidMfn, kWarmPool),
                        [&warm](Result<DomId> r) {
                          if (r.ok()) warm.push_back(*r);
                        });
    Drain(round, tracer, "sim.settle_setup", [&] { return system.loop().Run(); });
    for (DomId d : warm) {
      (void)sched.Release(d);
    }
  }
  round.Check(warm.size() == kWarmPool && sched.TotalPooled() == kWarmPool,
              "warm pool not filled in set-up");
  dispatcher.SetParent(*parent);
  round.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;
  system.trace().Clear();

  // --- Measured phase: the open-loop window, drained in chunks so the
  // host's bounded trace buffer can be harvested between them. ---
  std::vector<std::int64_t> latencies;
  dispatcher.RecordLatenciesTo(&latencies);
  StageSamples stages;
  const std::uint64_t devices_before = DeviceCloneHits(system.host());
  RegistryDelta delta;
  delta.before = RegistrySnapshot::Take(m);
  const SimTime phase_start = system.Now();
  const std::int64_t host_start = HostNowNs();
  tracer.SetOp(1);
  generator.Start(SimDuration::Millis(kWindowMs), [&](const LoadRequest& r) {
    tracer.SetOp(r.id + 1);
    auto scope = tracer.Begin("load.submit");
    dispatcher.Submit(r);
  });
  SimTime chunk_end = system.Now();
  while (system.loop().HasPendingEvents()) {
    chunk_end = chunk_end + SimDuration::Millis(kChunkMs);
    Drain(round, tracer, "sim.drain", [&] { return system.loop().RunUntil(chunk_end); });
    stages.Harvest(system.trace());
  }
  round.measure_host_s = static_cast<double>(HostNowNs() - host_start) / 1e9;
  round.measure_sim_s = (system.Now() - phase_start).ToSeconds();
  delta.after = RegistrySnapshot::Take(m);
  tracer.SetOp(0);
  dispatcher.RecordLatenciesTo(nullptr);

  // --- Output checks. ---
  const std::uint64_t submitted = delta.Counter("req/submitted");
  const std::uint64_t wins = delta.Counter("req/wins");
  const std::uint64_t cancelled = delta.Counter("req/cancelled");
  const std::uint64_t rejected = delta.Counter("req/rejected");
  const std::uint64_t failed = delta.Counter("req/failed");
  round.Check(delta.Counter("req/dispatched") == wins + cancelled + rejected,
              "req/dispatched != wins + cancelled + rejected");
  round.Check(submitted == generator.generated(), "generated requests not all submitted");
  round.Check(submitted == wins + failed && dispatcher.in_flight() == 0 &&
                  dispatcher.pending() == 0,
              "a submitted request was never resolved");
  round.Check(latencies.size() == wins, "winning latencies != wins");
  round.Check(latencies.size() > kTransient + 1000, "too few responses for an exact p99");
  round.Check(system.trace().dropped_events() == 0, "host trace buffer overflowed");
  round.Check(CheckHypervisorInvariants(system.hypervisor()).empty(), "hypervisor invariants");

  round.attempted = submitted;
  round.failed = failed;
  for (std::size_t i = kTransient; i < latencies.size(); ++i) {
    round.op_sim_ns.push_back(static_cast<double>(latencies[i]));
  }
  FillCommonSim(round);
  // Throughput counts every response in the window, not just the sampled ones.
  round.sim["sim_ops_per_s"] = {static_cast<double>(wins) / round.measure_sim_s, wins};
  FillPerOp(round, delta, submitted);
  FillClonePath(round, delta, DeviceCloneHits(system.host()) - devices_before);
  stages.Fill(round);
  FillMemory(round, m.GaugeValue("hypervisor/frames/allocated"), baseline_frames,
             m.GaugeValue("hypervisor/frames/saved_by_sharing"),
             m.GaugeValue("xenstore/entries"), 1 + sched.TotalPooled());

  const std::uint64_t hits = delta.Counter("sched/warm_hits");
  const std::uint64_t misses = delta.Counter("sched/warm_misses");
  const std::uint64_t resets = delta.Counter("clone/reset/count");
  round.sim["sched.warm_hit_ratio"] = {
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
      hits + misses};
  round.sim["sched.wait_sim_ms_p99"] = {HistogramQuantile(m, "sched/wait_ns", 0.99) / 1e6,
                                        delta.HistCount("sched/wait_ns")};
  round.sim["sched.warm_grant_sim_ms_p50"] = {
      HistogramQuantile(m, "sched/warm_grant_ns", 0.50) / 1e6,
      delta.HistCount("sched/warm_grant_ns")};
  round.sim["sched.rejected"] = {
      static_cast<double>(delta.Counter("sched/rejected_queue_full") + rejected), 1};
  round.sim["load.cancelled_per_win"] = {
      wins > 0 ? static_cast<double>(cancelled) / static_cast<double>(wins) : 0, wins};
  round.sim["load.service_sim_ms_p50"] = {HistogramQuantile(m, "req/service_ns", 0.50) / 1e6,
                                          delta.HistCount("req/service_ns")};
  round.sim["core.reset_pages_per_reset"] = {
      resets > 0 ? static_cast<double>(delta.Counter("clone/reset/pages_restored")) /
                       static_cast<double>(resets)
                 : 0,
      resets};

  // --- Teardown: parked children go, frames return to the parent's level. ---
  {
    auto scope = tracer.Begin("sched.drain_all");
    sched.DrainAll();
    Drain(round, tracer, "sim.settle_teardown", [&] { return system.loop().Run(); });
  }
  round.Check(m.GaugeValue("hypervisor/frames/allocated") == parent_frames,
              "frames not returned after teardown");
  round.Check(CheckHypervisorInvariants(system.hypervisor()).empty(),
              "hypervisor invariants after teardown");

  if (tracer.enabled()) {
    FillSimLayer(round, tracer);
    PutHostP50(round, tracer, "load.submit_host_us_p50", "load.submit", 1e3);
    PutHostP50(round, tracer, "toolstack.launch_host_us_p50", "toolstack.launch", 1e3);
  }
  round.digest = m.ExportJson();
  tracer.Bind(nullptr);
  return round;
}

}  // namespace perfbench
