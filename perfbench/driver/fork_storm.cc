// fork_storm: one 4 MiB Mini-OS UDP parent forks children one at a time
// (GuestContext::Fork, Bond switching, xs_clone, 1 staging thread). One op
// runs from the fork call to the child's readiness packet at the uplink.
// A boot arm in its own system launches the same number of instances the
// same way, for clone_vs_boot_x. The seed draws the parent's working set:
// before each fork the parent dirties a few random heap pages, which
// un-shares them (COW) so the next clone must share them again.

#include <cstdio>
#include <memory>
#include <string>

#include "driver/workloads.h"
#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"
#include "src/hypervisor/invariants.h"
#include "src/net/switch.h"
#include "src/sim/rng.h"

namespace perfbench {

using namespace nephele;

namespace {

constexpr int kInstances = 3000;        // clones per round
// Boots in the boot arm: the paper's Fig. 4 range. clone_vs_boot_x compares
// it with the first kBootInstances clones.
constexpr int kBootInstances = 1000;
constexpr unsigned kMaxDirtyPages = 32;  // parent pages dirtied before a fork
constexpr std::uint16_t kReadyPort = 9999;

// A pool sized to the arm's peak: 4 MiB per booted instance, well under
// that per clone.
SystemConfig ArmConfig(std::size_t pool_bytes) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = pool_bytes / kPageSize;
  cfg.clone_worker_threads = 1;
  return cfg;
}

DomainConfig UdpConfig(const std::string& name, std::uint32_t max_clones) {
  DomainConfig cfg;
  cfg.name = name;
  cfg.memory_mb = 4;
  cfg.max_clones = max_clones;
  return cfg;
}

struct ReadyTracker {
  SimTime last_ready;
  std::uint64_t count = 0;
};

void HookReady(const Host& host, HostSwitch* sw, ReadyTracker* tracker) {
  sw->set_uplink_sink([&host, tracker](const Packet& p) {
    if (p.dst_port == kReadyPort) {
      tracker->last_ready = host.Now();
      ++tracker->count;
    }
  });
}

double MeanMs(const std::vector<double>& ns, std::size_t from, std::size_t to) {
  std::vector<double> part;
  for (std::size_t i = from; i < to && i < ns.size(); ++i) {
    part.push_back(ns[i]);
  }
  return Mean(part) / 1e6;
}

std::string Anchor(const char* what, double got, double paper, const char* unit) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s: %.3f %s vs paper %.3g %s (relative error %+.1f%%)", what,
                got, unit, paper, unit, (got - paper) / paper * 100.0);
  return buf;
}

// The boot arm: kBootInstances fresh launches, each timed to its ready packet.
std::vector<double> RunBootArm(NepheleSystem& system, RoundResult& round, Tracer& tracer) {
  GuestManager guests(system);
  ReadyTracker tracker;
  HookReady(system.host(), system.toolstack().default_switch(), &tracker);
  std::vector<double> boot_ns;
  boot_ns.reserve(kBootInstances);
  for (int i = 0; i < kBootInstances; ++i) {
    tracer.SetOp(0);
    const SimTime start = system.Now();
    const std::uint64_t ready_before = tracker.count;
    auto launch = tracer.Begin("toolstack.launch");
    auto dom = guests.Launch(UdpConfig("boot-" + std::to_string(i), 0),
                             std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    Drain(round, tracer, "sim.settle_boot", [&] { return system.loop().Run(); });
    launch.End();
    round.Check(dom.ok(), "boot arm: launch " + std::to_string(i) + " failed");
    round.Check(tracker.count == ready_before + 1,
                "boot arm: no ready packet for launch " + std::to_string(i));
    if (!dom.ok()) {
      break;
    }
    boot_ns.push_back(static_cast<double>((tracker.last_ready - start).ns()));
  }
  round.Check(CheckHypervisorInvariants(system.hypervisor()).empty(),
              "boot arm: hypervisor invariants");
  return boot_ns;
}

// The clone arm: set-up, the measured forks, checks and teardown.
void RunCloneArm(const RoundParams& params, RoundResult& round, Tracer& tracer) {
  Rng rng(StreamSeed(params.seed, 1));

  // --- Set-up: the clone arm's system and its parent. ---
  const std::int64_t setup_start = HostNowNs();
  NepheleSystem system(ArmConfig(6 * kGiB));
  tracer.Bind(&system.loop());
  GuestManager guests(system);
  Bond bond;  // stateless switching: the family shares MAC/IP
  system.toolstack().SetDefaultSwitch(&bond);
  system.xencloned().SetUseXsClone(true);
  ReadyTracker tracker;
  HookReady(system.host(), &bond, &tracker);
  const std::int64_t baseline_frames = system.metrics().GaugeValue("hypervisor/frames/allocated");
  Result<DomId> parent = [&] {
    auto launch = tracer.Begin("toolstack.launch");
    auto dom = guests.Launch(UdpConfig("udp-parent", kInstances + 1),
                             std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    Drain(round, tracer, "sim.settle_setup", [&] { return system.loop().Run(); });
    return dom;
  }();
  round.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;
  round.Check(parent.ok(), "parent launch failed");
  if (!parent.ok()) {
    return;
  }
  GuestContext* parent_ctx = guests.ContextOf(*parent);
  const std::uint64_t ready_after_setup = tracker.count;
  const std::size_t heap_pages = parent_ctx->arena().capacity_bytes() / kPageSize;
  system.trace().Clear();

  // --- Measured phase: kInstances sequential forks. ---
  StageSamples stages;
  std::vector<DomId> children;
  children.reserve(kInstances);
  const std::uint64_t devices_before = DeviceCloneHits(system.host());
  RegistryDelta delta;
  delta.before = RegistrySnapshot::Take(system.metrics());
  const SimTime phase_start = system.Now();
  const std::int64_t host_start = HostNowNs();
  for (int i = 0; i < kInstances; ++i) {
    tracer.SetOp(static_cast<std::uint64_t>(i) + 1);
    ++round.attempted;
    // The parent's working set between forks (seeded input).
    const unsigned dirty = static_cast<unsigned>(rng.NextBelow(kMaxDirtyPages + 1));
    {
      auto scope = tracer.Begin("hypervisor.guest_write");
      for (unsigned p = 0; p < dirty; ++p) {
        const std::uint64_t word = rng.NextU64();
        (void)parent_ctx->arena().Write(rng.NextBelow(heap_pages) * kPageSize, &word,
                                        sizeof(word));
      }
    }
    const std::uint16_t port = static_cast<std::uint16_t>(20000 + i);
    const std::uint64_t ready_before = tracker.count;
    const SimTime start = system.Now();
    Status s = [&] {
      auto scope = tracer.Begin("core.fork");
      return parent_ctx->Fork(1, [port, &children](GuestContext& ctx, GuestApp& self,
                                                   const ForkResult& r) {
        if (r.is_child) {
          children.push_back(ctx.id());
          auto& app = static_cast<UdpReadyApp&>(self);
          app.config().src_port = port;
          app.SendReady(ctx);
        }
      });
    }();
    Drain(round, tracer, "sim.drain", [&] { return system.loop().Run(); });
    {
      auto scope = tracer.Begin("obs.harvest");
      stages.Harvest(system.trace());
    }
    if (!s.ok() || tracker.count != ready_before + 1) {
      ++round.failed;
      continue;
    }
    round.op_sim_ns.push_back(static_cast<double>((tracker.last_ready - start).ns()));
  }
  round.measure_host_s = static_cast<double>(HostNowNs() - host_start) / 1e9;
  round.measure_sim_s = (system.Now() - phase_start).ToSeconds();
  delta.after = RegistrySnapshot::Take(system.metrics());
  tracer.SetOp(0);

  round.Check(tracker.count - ready_after_setup == static_cast<std::uint64_t>(kInstances),
              "ready packets (" + std::to_string(tracker.count - ready_after_setup) +
                  ") != forks (" +
                  std::to_string(kInstances) + ")");
  round.Check(CheckHypervisorInvariants(system.hypervisor()).empty(), "hypervisor invariants");

  FillCommonSim(round);
  FillPerOp(round, delta, round.attempted);
  FillClonePath(round, delta, DeviceCloneHits(system.host()) - devices_before);
  stages.Fill(round);
  const MetricsRegistry& m = system.metrics();
  FillMemory(round, m.GaugeValue("hypervisor/frames/allocated"), baseline_frames,
             m.GaugeValue("hypervisor/frames/saved_by_sharing"),
             m.GaugeValue("xenstore/entries"), guests.NumGuests());
  round.sim["net.packets_per_op"] = {
      static_cast<double>(tracker.count - ready_after_setup) /
          static_cast<double>(round.attempted),
      tracker.count - ready_after_setup};

  // --- Teardown: every frame returns to the free pool. ---
  {
    auto scope = tracer.Begin("toolstack.teardown");
    for (DomId child : children) {
      (void)guests.Destroy(child);
    }
    (void)guests.Destroy(*parent);
    Drain(round, tracer, "sim.settle_teardown", [&] { return system.loop().Run(); });
  }
  round.Check(guests.NumGuests() == 0, "teardown left guests alive");
  round.Check(m.GaugeValue("hypervisor/frames/allocated") == baseline_frames,
              "frames not returned after teardown (" +
                  std::to_string(m.GaugeValue("hypervisor/frames/allocated")) + " vs " +
                  std::to_string(baseline_frames) + ")");
  round.Check(CheckHypervisorInvariants(system.hypervisor()).empty(),
              "hypervisor invariants after teardown");

  round.digest = system.metrics().ExportJson();
  tracer.Bind(nullptr);
}

}  // namespace

RoundResult RunForkStorm(const RoundParams& params, Tracer& tracer) {
  RoundResult round;
  RunCloneArm(params, round, tracer);

  // --- Boot arm (not an op): its own system, built after the clone arm is
  // gone so the two never hold memory at once. Building it is set-up. ---
  const std::int64_t boot_setup_start = HostNowNs();
  NepheleSystem boot_system(ArmConfig(kBootInstances * 5 * kMiB));
  round.setup_s += static_cast<double>(HostNowNs() - boot_setup_start) / 1e9;
  tracer.Bind(&boot_system.loop());
  std::vector<double> boot_ns = RunBootArm(boot_system, round, tracer);
  tracer.Bind(nullptr);
  const double boot_p50 = Quantile(boot_ns, 0.5);
  const std::vector<double> first_clones(
      round.op_sim_ns.begin(),
      round.op_sim_ns.begin() + std::min<std::ptrdiff_t>(kBootInstances, round.op_sim_ns.size()));
  const double clone_p50 = Quantile(first_clones, 0.5);
  round.sim["toolstack.boot_sim_ms_p50"] = {boot_p50 / 1e6, boot_ns.size()};
  round.sim["clone_vs_boot_x"] = {clone_p50 > 0 ? boot_p50 / clone_p50 : 0, boot_ns.size()};
  round.digest += boot_system.metrics().ExportJson();

  if (tracer.enabled()) {
    FillSimLayer(round, tracer);
    PutHostP50(round, tracer, "core.fork_host_us_p50", "core.fork", 1e3);
    PutHostP50(round, tracer, "xencloned.settle_host_us_p50", "sim.drain", 1e3);
    PutHostP50(round, tracer, "toolstack.launch_host_us_p50", "toolstack.launch", 1e3);
  }

  const std::size_t n = round.op_sim_ns.size();
  round.notes.push_back(Anchor("clone_vs_boot_x", round.sim["clone_vs_boot_x"].value, 8.0, "x"));
  round.notes.push_back(
      Anchor("mem_mib_per_instance", round.sim["mem_mib_per_instance"].value, 1.6, "MiB"));
  round.notes.push_back(Anchor("clone first-50 mean", MeanMs(round.op_sim_ns, 0, 50), 20.0, "ms"));
  round.notes.push_back(Anchor("clone mean of clones 951-1000 (the paper's last 50)",
                               MeanMs(round.op_sim_ns, 950, 1000), 30.0, "ms"));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "clone last-50 mean at %zu clones: %.3f ms (beyond the paper's 1000-instance "
                "range; no reference)",
                n, MeanMs(round.op_sim_ns, n > 50 ? n - 50 : 0, n));
  round.notes.push_back(buf);

  return round;
}

}  // namespace perfbench
