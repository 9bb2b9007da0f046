// Figure 7 — NGINX HTTP request throughput vs. number of workers.
//
// Two deployments (Sec. 7.1):
//  * Linux processes sharing one listen socket via SO_REUSEPORT; the kernel
//    load-balances connections across workers (baseline model).
//  * Unikraft clones: the master fork()s workers, each worker is a VM pinned
//    to its own core, and a Dom0 bond load-balances the MAC/IP-identical
//    vifs — the full Nephele datapath.
// A wrk-like closed-loop generator keeps 400 connections per worker open.
//
// Usage: bench_fig07_nginx_throughput [repetitions] [seconds] [--json=PATH]
//        (defaults 5 reps x 2 s; the paper used 30 x 5 s). With --json=PATH
//        the 1- and 4-worker throughputs, the 4-worker clones-vs-processes
//        ratio and the host wall time land in a BenchJsonWriter document for
//        the perf-regression gate.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_args.h"
#include "bench/bench_json.h"
#include "src/apps/nginx_app.h"
#include "src/baseline/linux_process.h"
#include "src/guest/guest_manager.h"
#include "src/sim/series.h"

namespace nephele {
namespace {

constexpr int kConnectionsPerWorker = 400;

// Closed-loop load against the unikernel deployment, via the bond.
double MeasureClones(unsigned workers, int seconds, std::uint64_t seed) {
  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 64 * 1024;
  NepheleSystem system(scfg);
  GuestManager guests(system);
  Bond bond;
  system.toolstack().SetDefaultSwitch(&bond);

  DomainConfig cfg;
  cfg.name = "nginx";
  cfg.memory_mb = 16;
  cfg.max_clones = workers;
  NginxConfig ncfg;
  ncfg.workers = workers;
  // Pinned clones still see a little per-run variation (timer/IRQ luck),
  // far below the unpinned processes'.
  Rng run_rng(seed * 77);
  ncfg.service_time = ncfg.service_time * std::max(0.97, run_rng.NextGaussian(1.0, 0.006));
  auto dom = guests.Launch(cfg, std::make_unique<NginxApp>(ncfg));
  if (!dom.ok()) {
    return 0;
  }
  system.Settle();

  GuestDevices* gd = system.toolstack().FindDevices(*dom);
  Ipv4Addr server_ip = gd->net->ip();
  Ipv4Addr client_ip = MakeIpv4(10, 8, 255, 1);

  std::uint64_t completions = 0;
  SimTime start = system.Now();
  SimTime deadline = start + SimDuration::Seconds(seconds);

  // Each "connection" is a distinct 5-tuple in a closed request loop.
  auto send_request = [&](std::uint16_t src_port) {
    Packet req;
    req.proto = IpProto::kTcp;
    req.src_ip = client_ip;
    req.src_port = src_port;
    req.dst_ip = server_ip;
    req.dst_port = 80;
    static const char kGet[] = "GET /";
    req.payload.assign(kGet, kGet + sizeof(kGet) - 1);
    bond.InjectFromUplink(req);
  };
  bond.set_uplink_sink([&](const Packet& reply) {
    if (reply.src_port != 80) {
      return;
    }
    ++completions;
    if (system.Now() < deadline) {
      send_request(reply.dst_port);  // next request on the same connection
    }
  });

  Rng rng(seed);
  int conns = kConnectionsPerWorker * static_cast<int>(workers);
  for (int c = 0; c < conns; ++c) {
    // Tiny start offsets decorrelate the initial burst.
    std::uint16_t port = static_cast<std::uint16_t>(10000 + c);
    system.loop().Post(SimDuration::Micros(static_cast<double>(rng.NextBelow(500))),
                       [&send_request, port] { send_request(port); });
  }
  system.loop().RunUntil(deadline);
  return static_cast<double>(completions) / static_cast<double>(seconds);
}

// Closed-loop load against the SO_REUSEPORT process group model.
double MeasureProcesses(unsigned workers, int seconds, std::uint64_t seed) {
  ReuseportServerGroup group(ReuseportServerGroup::Config{.workers = workers}, seed);
  EventLoop loop;
  SimTime deadline(SimDuration::Seconds(seconds).ns());
  std::uint64_t completions = 0;

  std::function<void(std::uint16_t)> issue = [&](std::uint16_t src_port) {
    Packet req;
    req.proto = IpProto::kTcp;
    req.src_ip = MakeIpv4(10, 8, 255, 1);
    req.src_port = src_port;
    req.dst_ip = MakeIpv4(10, 8, 0, 2);
    req.dst_port = 80;
    SimTime done = group.Submit(req, loop.Now());
    loop.PostAt(done, [&, src_port] {
      ++completions;
      if (loop.Now() < deadline) {
        issue(src_port);
      }
    });
  };
  int conns = kConnectionsPerWorker * static_cast<int>(workers);
  for (int c = 0; c < conns; ++c) {
    issue(static_cast<std::uint16_t>(10000 + c));
  }
  loop.RunUntil(deadline);
  return static_cast<double>(completions) / static_cast<double>(seconds);
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  auto wall_start = std::chrono::steady_clock::now();
  BenchArgs args(argc, argv,
                 {{"reps", 5, "repetitions per worker count"},
                  {"seconds", 2, "simulated seconds per run"}},
                 {"json"});
  int reps = static_cast<int>(args.Positional("reps"));
  int seconds = static_cast<int>(args.Positional("seconds"));

  SeriesTable table("Figure 7: NGINX HTTP throughput vs #workers (requests/s)",
                    {"workers", "processes_mean", "processes_stddev", "clones_mean",
                     "clones_stddev"});
  double proc1 = 0, clone1 = 0, proc4 = 0, clone4 = 0;
  for (unsigned workers = 1; workers <= 4; ++workers) {
    RunningStat procs, clones;
    for (int r = 0; r < reps; ++r) {
      procs.Add(MeasureProcesses(workers, seconds, 1000 + static_cast<std::uint64_t>(r)));
      clones.Add(MeasureClones(workers, seconds, 2000 + static_cast<std::uint64_t>(r)));
    }
    table.AddRow({static_cast<double>(workers), procs.mean(), procs.stddev(), clones.mean(),
                  clones.stddev()});
    if (workers == 1) {
      proc1 = procs.mean();
      clone1 = clones.mean();
    }
    if (workers == 4) {
      proc4 = procs.mean();
      clone4 = clones.mean();
    }
  }
  table.Print();
  PrintSummary("process scaling 1->4 workers", proc4 / proc1, "x");
  PrintSummary("clone scaling 1->4 workers", clone4 / clone1, "x");
  PrintSummary("clones vs processes at 4 workers", clone4 / proc4, "x");

  if (!args.json_path().empty()) {
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
    BenchJsonWriter json("fig07");
    json.Add("clone_rps_1w", clone1, "req_per_sec", MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("clone_rps_4w", clone4, "req_per_sec", MetricDir::kHigherIsBetter, MetricKind::kSim);
    json.Add("process_rps_1w", proc1, "req_per_sec", MetricDir::kHigherIsBetter,
             MetricKind::kSim);
    json.Add("process_rps_4w", proc4, "req_per_sec", MetricDir::kHigherIsBetter,
             MetricKind::kSim);
    json.Add("clone_vs_process_4w_x", clone4 / proc4, "x", MetricDir::kHigherIsBetter,
             MetricKind::kSim);
    json.Add("host_wall_ms", wall_ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
    return json.WriteFile(args.json_path()) ? 0 : 1;
  }
  return 0;
}
