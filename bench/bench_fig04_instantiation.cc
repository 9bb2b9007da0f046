// Figure 4 — Instantiation times for the Mini-OS UDP server.
//
// Four series over 1000 instances: boot, restore-from-image, clone with the
// Xenstore deep-copy ablation, and clone with xs_clone. Methodology follows
// Sec. 6.1: each instance is "done" when its UDP readiness packet reaches the
// host; the clone series fork a single parent repeatedly; the boot series
// disables xl's name-uniqueness scan (names are generated unique).
//
// Usage: bench_fig04_instantiation [num_instances] [clone_worker_threads]
// (defaults: 1000 instances, 1 staging thread). The thread count only moves
// host wall-clock — every simulated figure is identical at any setting.
// With --json=PATH the run means land in a BenchJsonWriter document for the
// perf-regression gate (scripts/bench_gate.sh).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "bench/bench_args.h"
#include "bench/bench_json.h"
#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"
#include "src/net/switch.h"
#include "src/obs/metrics.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

// Staging threads for the clone series (second CLI argument).
unsigned g_clone_worker_threads = 1;

SystemConfig BigPool() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 3 * kGiB / kPageSize * 4;  // 12 GiB
  cfg.clone_worker_threads = g_clone_worker_threads;
  return cfg;
}

struct ReadyTracker {
  SimTime last_ready;
  int count = 0;
};

void HookReady(NepheleSystem& system, HostSwitch* sw, ReadyTracker* tracker) {
  sw->set_uplink_sink([&system, tracker](const Packet& p) {
    if (p.dst_port == 9999) {
      tracker->last_ready = system.Now();
      ++tracker->count;
    }
  });
}

DomainConfig UdpVmConfig(const std::string& name, std::uint32_t max_clones) {
  DomainConfig cfg;
  cfg.name = name;
  cfg.memory_mb = 4;
  cfg.max_clones = max_clones;
  return cfg;
}

// Boot `n` fresh VMs; returns per-instance ms.
std::vector<double> RunBoot(int n) {
  NepheleSystem system(BigPool());
  GuestManager guests(system);
  ReadyTracker tracker;
  HookReady(system, system.toolstack().default_switch(), &tracker);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    SimTime start = system.Now();
    auto dom = guests.Launch(UdpVmConfig("udp-" + std::to_string(i), 0),
                             std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    if (!dom.ok()) {
      std::fprintf(stderr, "boot %d failed: %s\n", i, dom.status().ToString().c_str());
      break;
    }
    system.Settle();
    out.push_back((tracker.last_ready - start).ToMillis());
  }
  return out;
}

// Create+save+destroy+restore `n` times, keeping restored instances running.
std::vector<double> RunRestore(int n) {
  NepheleSystem system(BigPool());
  GuestManager guests(system);
  ReadyTracker tracker;
  HookReady(system, system.toolstack().default_switch(), &tracker);
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    auto dom = guests.Launch(UdpVmConfig("udp-" + std::to_string(i), 0),
                             std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    if (!dom.ok()) {
      break;
    }
    system.Settle();
    auto image = system.toolstack().SaveDomain(*dom);
    if (!image.ok()) {
      break;
    }
    (void)guests.Destroy(*dom);
    system.Settle();
    SimTime start = system.Now();
    auto restored = guests.Restore(*image, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    if (!restored.ok()) {
      break;
    }
    system.Settle();
    out.push_back((tracker.last_ready - start).ToMillis());
  }
  return out;
}

// Per-phase numbers for one clone run, sourced from the system's metrics
// registry (the same data ExportJson() emits) rather than subsystem-private
// counters.
struct CloneRunStats {
  std::uint64_t xenstore_requests = 0;
  std::uint64_t log_rotations = 0;
  double stage1_mean_ms = 0.0;  // CLONEOP first stage, registry histogram
  double stage2_mean_ms = 0.0;  // xencloned second stage, registry histogram
};

double HistMeanMs(const MetricsRegistry& m, std::string_view name) {
  const Histogram* h = m.FindHistogram(name);
  return h == nullptr ? 0.0 : h->mean() / 1e6;
}

// One parent forks itself `n` times. Returns per-clone fork()->ready ms plus
// registry-derived phase stats via the out-param.
std::vector<double> RunClone(int n, bool use_xs_clone, CloneRunStats* stats) {
  NepheleSystem system(BigPool());
  GuestManager guests(system);
  Bond bond;  // stateless switching, identical MAC/IP for the family
  system.toolstack().SetDefaultSwitch(&bond);
  system.xencloned().SetUseXsClone(use_xs_clone);
  ReadyTracker tracker;
  HookReady(system, &bond, &tracker);

  auto parent = guests.Launch(UdpVmConfig("udp-parent", static_cast<std::uint32_t>(n) + 1),
                              std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  if (!parent.ok()) {
    std::fprintf(stderr, "parent boot failed\n");
    return {};
  }
  system.Settle();
  const MetricsRegistry& metrics = system.metrics();
  std::uint64_t requests_before = metrics.CounterValue("xenstore/requests/total");
  std::uint64_t rotations_before = metrics.CounterValue("xenstore/log/rotations");

  std::vector<double> out;
  std::uint16_t next_port = 20000;
  for (int i = 0; i < n; ++i) {
    // Unique <address, port> per clone so bond hashing stays injective
    // (Sec. 6.1 methodology).
    std::uint16_t port = next_port++;
    SimTime start = system.Now();
    Status s = guests.ContextOf(*parent)->Fork(
        1, [port](GuestContext& ctx, GuestApp& self, const ForkResult& r) {
          if (r.is_child) {
            auto& app = static_cast<UdpReadyApp&>(self);
            app.config().src_port = port;
            app.SendReady(ctx);
          }
        });
    if (!s.ok()) {
      std::fprintf(stderr, "fork %d failed: %s\n", i, s.ToString().c_str());
      break;
    }
    system.Settle();
    out.push_back((tracker.last_ready - start).ToMillis());
  }
  stats->xenstore_requests = metrics.CounterValue("xenstore/requests/total") - requests_before;
  stats->log_rotations = metrics.CounterValue("xenstore/log/rotations") - rotations_before;
  stats->stage1_mean_ms = HistMeanMs(metrics, "clone/stage1/duration_ns");
  stats->stage2_mean_ms = HistMeanMs(metrics, "clone/stage2/duration_ns");
  return out;
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  BenchArgs args(argc, argv,
                 {{"num_instances", 1000, "instances per series"},
                  {"clone_worker_threads", 1, "staging threads (wall-clock only)"}},
                 {"json"});
  int n = static_cast<int>(args.Positional("num_instances"));
  g_clone_worker_threads = static_cast<unsigned>(args.Positional("clone_worker_threads"));

  auto wall_start = std::chrono::steady_clock::now();
  std::vector<double> boot = RunBoot(n);
  std::vector<double> restore = RunRestore(n);
  CloneRunStats deep_stats;
  std::vector<double> deep = RunClone(n, /*use_xs_clone=*/false, &deep_stats);
  CloneRunStats clone_stats;
  std::vector<double> clone = RunClone(n, /*use_xs_clone=*/true, &clone_stats);
  double wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                             wall_start)
                       .count();

  if (!args.json_path().empty()) {
    auto mean_of = [](const std::vector<double>& v) {
      RunningStat s;
      for (double x : v) {
        s.Add(x);
      }
      return s.mean();
    };
    BenchJsonWriter json("fig04");
    json.Add("boot_mean_ms", mean_of(boot), "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("restore_mean_ms", mean_of(restore), "ms", MetricDir::kLowerIsBetter,
             MetricKind::kSim);
    json.Add("clone_deepcopy_mean_ms", mean_of(deep), "ms", MetricDir::kLowerIsBetter,
             MetricKind::kSim);
    json.Add("clone_mean_ms", mean_of(clone), "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
    json.Add("clone_vs_boot_speedup", mean_of(boot) / mean_of(clone), "x",
             MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("stage1_mean_ms", clone_stats.stage1_mean_ms, "ms", MetricDir::kLowerIsBetter,
             MetricKind::kSim);
    json.Add("stage2_mean_ms", clone_stats.stage2_mean_ms, "ms", MetricDir::kLowerIsBetter,
             MetricKind::kSim);
    json.Add("host_wall_ms", wall_ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
    return json.WriteFile(args.json_path()) ? 0 : 1;
  }

  SeriesTable table("Figure 4: instantiation times for Mini-OS UDP server (ms)",
                    {"instance", "boot", "restore", "clone_xs_deep_copy", "clone"});
  std::size_t rows = std::min({boot.size(), restore.size(), deep.size(), clone.size()});
  for (std::size_t i = 0; i < rows; ++i) {
    table.AddRow({static_cast<double>(i + 1), boot[i], restore[i], deep[i], clone[i]});
  }
  table.Print();

  auto avg = [](const std::vector<double>& v, std::size_t from, std::size_t to) {
    RunningStat s;
    for (std::size_t i = from; i < to && i < v.size(); ++i) {
      s.Add(v[i]);
    }
    return s;
  };
  std::size_t tail = rows > 50 ? rows - 50 : 0;
  PrintSummary("boot first-50 mean", avg(boot, 0, 50).mean(), "ms");
  PrintSummary("boot last-50 mean", avg(boot, tail, rows).mean(), "ms");
  PrintSummary("restore first-50 mean", avg(restore, 0, 50).mean(), "ms");
  PrintSummary("restore last-50 mean", avg(restore, tail, rows).mean(), "ms");
  PrintSummary("clone+deepcopy first-50 mean", avg(deep, 0, 50).mean(), "ms");
  PrintSummary("clone+deepcopy last-50 mean", avg(deep, tail, rows).mean(), "ms");
  PrintSummary("clone first-50 mean", avg(clone, 0, 50).mean(), "ms");
  PrintSummary("clone last-50 mean", avg(clone, tail, rows).mean(), "ms");
  PrintSummary("instantiation speedup (boot mean / clone mean)",
               avg(boot, 0, rows).mean() / avg(clone, 0, rows).mean(), "x");
  PrintSummary("xenstore requests per clone (xs_clone)",
               static_cast<double>(clone_stats.xenstore_requests) / static_cast<double>(rows));
  PrintSummary("xenstore requests per clone (deep copy)",
               static_cast<double>(deep_stats.xenstore_requests) / static_cast<double>(rows));
  PrintSummary("log-rotation spikes, clone run (xs_clone)",
               static_cast<double>(clone_stats.log_rotations));
  PrintSummary("log-rotation spikes, clone run (deep copy)",
               static_cast<double>(deep_stats.log_rotations));
  PrintSummary("clone stage-1 mean (xs_clone)", clone_stats.stage1_mean_ms, "ms");
  PrintSummary("clone stage-2 mean (xs_clone)", clone_stats.stage2_mean_ms, "ms");
  PrintSummary("clone stage-1 mean (deep copy)", deep_stats.stage1_mean_ms, "ms");
  PrintSummary("clone stage-2 mean (deep copy)", deep_stats.stage2_mean_ms, "ms");
  return 0;
}
