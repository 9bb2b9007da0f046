// cluster_churn: a 4-host ClusterFabric with spread placement and the parent
// replicated to every peer. Each cycle acquires three waves of 128 children
// through ClusterScheduler, releases a seeded wave's worth of them and
// re-acquires it from the cross-host warm pools, migrates a fixed set of
// standalone booted domains one hop around the host ring (clones cannot
// migrate: the family refuses), then releases every child and empties the
// pools so the next cycle starts cold. One op runs from an Acquire call to
// one child's grant; a wave's 128 children come from seeded requests of
// 1-32 children at seeded times. The driver runs it with 1 staging thread,
// and in traced runs also with min(4, host CPUs) for the WorkerPool verdict.
//
// The hosts share one virtual clock, so a wave of 128 cold clones takes
// seconds of virtual time; the scheduler's request timeout is raised above
// that so no Acquire times out — the latency itself is what op_sim_ms_*
// reports.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <string>

#include "driver/workloads.h"
#include "src/core/fabric.h"
#include "src/hypervisor/invariants.h"
#include "src/sched/cluster_scheduler.h"
#include "src/sim/rng.h"

namespace perfbench {

using namespace nephele;

namespace {

constexpr std::size_t kHosts = 4;
constexpr unsigned kWave = 128;
constexpr int kColdWaves = 3;  // per cycle, plus one warm re-acquire wave
constexpr int kCycles = 8;
constexpr int kMovers = 8;

struct Mover {
  std::size_t host = 0;
  DomId dom = kDomInvalid;
};

std::size_t LiveDomains(ClusterFabric& fabric) {
  std::size_t n = 0;
  for (std::size_t h = 0; h < fabric.num_hosts(); ++h) {
    for (DomId d : fabric.host(h).hypervisor().DomainIds()) {
      n += d != kDom0 ? 1 : 0;
    }
  }
  return n;
}

std::int64_t FramesAllocated(ClusterFabric& fabric) {
  std::int64_t n = 0;
  for (std::size_t h = 0; h < fabric.num_hosts(); ++h) {
    n += fabric.host(h).metrics().GaugeValue("hypervisor/frames/allocated");
  }
  return n;
}

}  // namespace

RoundResult RunClusterChurn(const RoundParams& params, Tracer& tracer) {
  RoundResult round;
  Rng rng(StreamSeed(params.seed, 4));

  // --- Set-up: fabric, parent, replicas, and the standalone movers. ---
  const std::int64_t setup_start = HostNowNs();
  ClusterConfig cfg;
  cfg.hosts = kHosts;
  cfg.placement = PlacementPolicy::kSpread;
  cfg.host.hypervisor.pool_frames = 256 * 1024;  // 1 GiB per host
  cfg.host.clone_worker_threads = params.staging_threads;
  cfg.host.sched.max_queue_depth = 256;
  cfg.host.sched.warm_pool_capacity = kWave;
  cfg.host.sched.request_timeout = SimDuration::Seconds(60);
  ClusterFabric fabric(cfg);
  tracer.Bind(&fabric.loop());
  ClusterScheduler sched(fabric);
  std::vector<const MetricsRegistry*> registries{&fabric.metrics()};
  for (std::size_t h = 0; h < kHosts; ++h) {
    registries.push_back(&fabric.host(h).metrics());
  }
  const std::int64_t baseline_frames = FramesAllocated(fabric);

  DomainConfig parent_cfg;
  parent_cfg.name = "churn-fn";
  parent_cfg.memory_mb = 4;
  parent_cfg.max_clones = 1024;
  Result<DomId> parent = [&] {
    auto launch = tracer.Begin("toolstack.launch");
    auto dom = fabric.host(0).toolstack().CreateDomain(parent_cfg);
    Drain(round, tracer, "sim.settle_setup", [&] { return fabric.loop().Run(); });
    return dom;
  }();
  round.Check(parent.ok(), "parent boot failed");
  if (!parent.ok()) {
    return round;
  }
  Result<std::size_t> family = [&] {
    auto scope = tracer.Begin("cluster.register_parent");
    auto f = sched.RegisterParent(0, *parent);
    Drain(round, tracer, "sim.settle_setup", [&] { return fabric.loop().Run(); });
    return f;
  }();
  round.Check(family.ok(), "RegisterParent failed");
  for (std::size_t h = 0; h < kHosts && family.ok(); ++h) {
    round.Check(sched.replica(*family, h) != kDomInvalid,
                "no parent replica on host " + std::to_string(h));
  }
  std::vector<Mover> movers;
  for (int i = 0; i < kMovers; ++i) {
    DomainConfig mcfg;
    mcfg.name = "mover-" + std::to_string(i);
    mcfg.memory_mb = rng.NextBool(0.5) ? 4 : 8;  // seeded image size
    mcfg.max_clones = 0;
    const std::size_t host = static_cast<std::size_t>(i) % kHosts;
    auto launch = tracer.Begin("toolstack.launch");
    auto dom = fabric.host(host).toolstack().CreateDomain(mcfg);
    Drain(round, tracer, "sim.settle_setup", [&] { return fabric.loop().Run(); });
    round.Check(dom.ok(), "mover boot failed");
    if (dom.ok()) {
      movers.push_back({host, *dom});
    }
  }
  if (!family.ok()) {
    return round;
  }
  round.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;
  const std::int64_t setup_frames = FramesAllocated(fabric);

  // --- Measured phase. ---
  std::uint64_t requested = 0, granted = 0, migrations = 0, migrated = 0;
  std::vector<double> migration_ns;
  std::vector<ClusterGrant> live;
  double skew = 0;
  std::size_t peak_live_domains = 0;
  std::int64_t peak_frames = 0;
  std::int64_t saved_frames = 0;
  std::uint64_t op = 0;
  // One Acquire call for `n` children; each child's op runs from this call
  // to its grant.
  auto acquire = [&](unsigned n) {
    requested += n;
    const SimTime start = fabric.Now();
    tracer.SetOp(++op);
    auto scope = tracer.Begin("cluster.acquire");
    Status s = sched.Acquire(*family, n, [&, start](Result<ClusterGrant> r) {
      if (!r.ok()) {
        return;
      }
      ++granted;
      live.push_back(*r);
      round.op_sim_ns.push_back(static_cast<double>((fabric.Now() - start).ns()));
    });
    round.Check(s.ok(), "Acquire refused: " + s.ToString());
  };
  // A wave: kWave children asked for by seeded requests of 1-32 children
  // each, arriving at seeded times within the wave's first 50 ms.
  auto wave = [&] {
    for (unsigned left = kWave; left > 0;) {
      const unsigned n = std::min<unsigned>(left, 1 + static_cast<unsigned>(rng.NextBelow(32)));
      left -= n;
      fabric.loop().Post(SimDuration::Micros(static_cast<double>(rng.NextBelow(50000))),
                         [&acquire, n] { acquire(n); });
    }
    Drain(round, tracer, "sim.drain", [&] { return fabric.loop().Run(); });
  };
  auto release = [&](std::size_t index) {
    auto scope = tracer.Begin("cluster.release");
    round.Check(sched.Release(live[index]).ok(), "Release failed");
  };

  RegistryDelta delta;
  delta.before = RegistrySnapshot::Take(registries);
  std::uint64_t devices_before = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    devices_before += DeviceCloneHits(fabric.host(h));
    fabric.host(h).trace().Clear();
  }
  StageSamples stages;
  const SimTime phase_start = fabric.Now();
  const std::int64_t host_start = HostNowNs();
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int w = 0; w < kColdWaves; ++w) {
      wave();
    }
    // Release a seeded wave's worth, then re-acquire it from the warm pools.
    for (std::size_t i = live.size(); i > 1; --i) {
      std::swap(live[i - 1], live[rng.NextBelow(i)]);
    }
    for (std::size_t i = 0; i < kWave; ++i) {
      release(live.size() - 1 - i);
    }
    live.resize(live.size() - kWave);
    wave();

    std::size_t most = 0, least = SIZE_MAX;
    for (std::size_t h = 0; h < kHosts; ++h) {
      most = std::max(most, sched.active_on(h));
      least = std::min(least, sched.active_on(h));
    }
    skew = least > 0 ? static_cast<double>(most) / static_cast<double>(least) : 0;
    peak_live_domains = LiveDomains(fabric);
    peak_frames = FramesAllocated(fabric);
    saved_frames = 0;
    for (std::size_t h = 0; h < kHosts; ++h) {
      saved_frames +=
          fabric.host(h).metrics().GaugeValue("hypervisor/frames/saved_by_sharing");
    }

    // One hop around the ring for every standalone domain.
    for (Mover& mv : movers) {
      const std::size_t dst = (mv.host + 1) % kHosts;
      ++migrations;
      const SimTime start = fabric.Now();
      Result<DomId> moved = [&] {
        auto scope = tracer.Begin("cluster.migrate");
        return fabric.Migrate(mv.dom, mv.host, dst);
      }();
      migration_ns.push_back(static_cast<double>((fabric.Now() - start).ns()));
      Drain(round, tracer, "sim.drain", [&] { return fabric.loop().Run(); });
      round.Check(moved.ok(), "migration did not land: " + moved.status().ToString());
      if (moved.ok()) {
        ++migrated;
        mv = {dst, *moved};
      }
    }

    for (std::size_t i = live.size(); i-- > 0;) {
      release(i);
    }
    live.clear();
    {
      auto scope = tracer.Begin("sched.drain_all");
      for (std::size_t h = 0; h < kHosts; ++h) {
        sched.host_scheduler(h).DrainAll();
      }
    }
    Drain(round, tracer, "sim.drain", [&] { return fabric.loop().Run(); });
    for (std::size_t h = 0; h < kHosts; ++h) {
      stages.Harvest(fabric.host(h).trace());
    }
  }
  round.measure_host_s = static_cast<double>(HostNowNs() - host_start) / 1e9;
  round.measure_sim_s = (fabric.Now() - phase_start).ToSeconds();
  delta.after = RegistrySnapshot::Take(registries);
  std::uint64_t device_clones = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    device_clones += DeviceCloneHits(fabric.host(h));
  }
  tracer.SetOp(0);

  // --- Output checks. ---
  round.Check(granted == requested, "granted (" + std::to_string(granted) + ") != requested (" +
                                        std::to_string(requested) + ")");
  round.Check(migrated == migrations, "a migration did not land");
  for (std::size_t h = 0; h < kHosts; ++h) {
    round.Check(CheckHypervisorInvariants(fabric.host(h).hypervisor()).empty(),
                "hypervisor invariants on host " + std::to_string(h));
    round.Check(fabric.host(h).trace().dropped_events() == 0, "host trace buffer overflowed");
  }
  round.attempted = requested;
  round.failed = requested - granted;

  FillCommonSim(round);
  FillPerOp(round, delta, granted);
  FillClonePath(round, delta, device_clones - devices_before);
  stages.Fill(round);
  std::int64_t entries = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    entries += fabric.host(h).metrics().GaugeValue("xenstore/entries");
  }
  FillMemory(round, peak_frames, baseline_frames, saved_frames, entries, peak_live_domains);
  const std::uint64_t hits = delta.Counter("sched/warm_hits");
  const std::uint64_t misses = delta.Counter("sched/warm_misses");
  const std::uint64_t resets = delta.Counter("clone/reset/count");
  round.sim["sched.warm_hit_ratio"] = {
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
      hits + misses};
  round.sim["sched.rejected"] = {static_cast<double>(delta.Counter("sched/rejected_queue_full") +
                                                     delta.Counter("cluster/rejected_total")),
                                 1};
  round.sim["core.reset_pages_per_reset"] = {
      resets > 0 ? static_cast<double>(delta.Counter("clone/reset/pages_restored")) /
                       static_cast<double>(resets)
                 : 0,
      resets};
  round.sim["net.fabric_tx_bytes"] = {static_cast<double>(delta.Counter("fabric/link_tx_bytes")),
                                      delta.Counter("fabric/link_tx_packets")};
  round.sim["net.migration_sim_ms_p50"] = {Quantile(migration_ns, 0.5) / 1e6,
                                           migration_ns.size()};
  round.sim["cluster.placement_skew"] = {skew, kHosts};
  round.sim["cluster.warm_placements"] = {
      static_cast<double>(delta.Counter("cluster/warm_placements")),
      delta.Counter("cluster/placements_total")};

  // --- Teardown: parked children go; frames return to the set-up level. ---
  {
    auto scope = tracer.Begin("sched.drain_all");
    for (std::size_t h = 0; h < kHosts; ++h) {
      sched.host_scheduler(h).DrainAll();
    }
    Drain(round, tracer, "sim.settle_teardown", [&] { return fabric.loop().Run(); });
  }
  round.Check(FramesAllocated(fabric) == setup_frames, "frames not returned after teardown");

  if (tracer.enabled()) {
    FillSimLayer(round, tracer);
    PutHostP50(round, tracer, "cluster.acquire_host_us_p50", "cluster.acquire", 1e3);
    PutHostP50(round, tracer, "cluster.migrate_host_ms_p50", "cluster.migrate", 1e6);
    PutHostP50(round, tracer, "toolstack.launch_host_us_p50", "toolstack.launch", 1e3);
  }
  round.digest = fabric.ExportClusterMetricsJson();
  tracer.Bind(nullptr);
  return round;
}

}  // namespace perfbench
