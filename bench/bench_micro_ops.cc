// Micro-benchmarks (google-benchmark) of the simulator's primitive
// operations. These measure HOST wall-clock cost of the implementation —
// how fast the simulation itself executes — complementing the virtual-time
// figures benches. Useful for keeping the 1000-instance sweeps fast.
//
// With --json=PATH the binary skips google-benchmark and runs the gate's
// fixed op set instead (--suite=clone | sched | loop), writing a
// BenchJsonWriter document: per-op wall ms and ops/sec for single-child
// stage 1, the 64-child batch, scheduler cold dispatch and warm-pool hits, event-loop post/run churn and guest flow-table lookups.
// Any other flag is passed through to google-benchmark.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_args.h"
#include "bench/bench_json.h"
#include "src/apps/udp_ready_app.h"
#include "src/guest/guest_manager.h"
#include "src/guest/ipc.h"
#include "src/guest/ministack.h"
#include "src/sched/scheduler.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"

namespace nephele {
namespace {

void BM_FrameAllocRelease(benchmark::State& state) {
  FrameTable frames(1024);
  for (auto _ : state) {
    auto mfn = frames.Alloc(1);
    benchmark::DoNotOptimize(mfn);
    (void)frames.Release(*mfn);
  }
}
BENCHMARK(BM_FrameAllocRelease);

void BM_CowShareResolve(benchmark::State& state) {
  FrameTable frames(1024);
  for (auto _ : state) {
    auto mfn = frames.Alloc(1);
    (void)frames.ShareFirst(*mfn);
    auto res = frames.ResolveCowWrite(*mfn, 2);
    benchmark::DoNotOptimize(res);
    (void)frames.Release(res->mfn);
    (void)frames.Release(*mfn);
  }
}
BENCHMARK(BM_CowShareResolve);

void BM_XenstoreWrite(benchmark::State& state) {
  EventLoop loop;
  XenstoreDaemon xs(loop, DefaultCostModel());
  std::uint64_t i = 0;
  for (auto _ : state) {
    (void)xs.Write("/bench/key" + std::to_string(i++ % 512), "value");
  }
}
BENCHMARK(BM_XenstoreWrite);

void BM_XsCloneDirectory(benchmark::State& state) {
  EventLoop loop;
  XenstoreDaemon xs(loop, DefaultCostModel());
  for (int i = 0; i < 30; ++i) {
    (void)xs.Write("/local/domain/1/k" + std::to_string(i), std::to_string(i));
  }
  (void)xs.IntroduceDomain(1);
  std::uint64_t c = 2;
  for (auto _ : state) {
    (void)xs.IntroduceDomain(static_cast<DomId>(c));
    (void)xs.XsClone(1, static_cast<DomId>(c), XsCloneOp::kDevVif, "/local/domain/1",
                     "/local/domain/" + std::to_string(c));
    ++c;
  }
}
BENCHMARK(BM_XsCloneDirectory);

void BM_EvtchnSendDeliver(benchmark::State& state) {
  EventLoop loop;
  Hypervisor hv(loop, DefaultCostModel(), HypervisorConfig{.pool_frames = 64});
  auto a = hv.CreateDomain("a", 1);
  auto b = hv.CreateDomain("b", 1);
  (void)hv.UnpauseDomain(*a);
  (void)hv.UnpauseDomain(*b);
  auto port_b = hv.EvtchnAllocUnbound(*b, *a);
  auto port_a = hv.EvtchnBindInterdomain(*a, *b, *port_b);
  hv.SetEvtchnHandler(*b, [](EvtchnPort) {});
  for (auto _ : state) {
    (void)hv.EvtchnSend(*a, *port_a);
    loop.Run();
  }
}
BENCHMARK(BM_EvtchnSendDeliver);

void BM_FullGuestBoot(benchmark::State& state) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 8 * 1024 * 1024;
  NepheleSystem system(cfg);
  GuestManager guests(system);
  std::uint64_t i = 0;
  for (auto _ : state) {
    DomainConfig dcfg;
    dcfg.name = "vm-" + std::to_string(i++);
    auto dom = guests.Launch(dcfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
    system.Settle();
    benchmark::DoNotOptimize(dom);
  }
}
BENCHMARK(BM_FullGuestBoot)->Unit(benchmark::kMicrosecond);

void BM_FullClone(benchmark::State& state) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 16 * 1024 * 1024;
  NepheleSystem system(cfg);
  GuestManager guests(system);
  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.max_clones = 2'000'000;  // clamped by pool anyway
  auto dom = guests.Launch(dcfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system.Settle();
  for (auto _ : state) {
    Status s = guests.ContextOf(*dom)->Fork(1, nullptr);
    system.Settle();
    if (!s.ok()) {
      state.SkipWithError("pool exhausted");
      break;
    }
  }
}
BENCHMARK(BM_FullClone)->Unit(benchmark::kMicrosecond);

// Host wall-clock of one 64-child clone batch (stage 1 only).
void BM_CloneBatch64(benchmark::State& state) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 2 * 1024 * 1024;
  NepheleSystem system(cfg);
  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 64;  // 16k-page p2m: staging dominates the batch
  dcfg.max_clones = 1u << 20;
  auto parent = system.toolstack().CreateDomain(dcfg);
  if (!parent.ok()) {
    state.SkipWithError("parent boot failed");
    return;
  }
  system.Settle();
  const Domain* p = system.hypervisor().FindDomain(*parent);
  const Mfn start_info = p->p2m[p->start_info_gfn].mfn;
  for (auto _ : state) {
    auto children = system.clone_engine().Clone({*parent, *parent, start_info, 64});
    if (!children.ok()) {
      state.SkipWithError("clone failed");
      break;
    }
    state.PauseTiming();
    system.Settle();  // run stage 2, then retire the batch
    for (DomId c : *children) {
      (void)system.toolstack().DestroyDomain(c);
      if (system.hypervisor().FindDomain(c) != nullptr) {
        (void)system.hypervisor().DestroyDomain(c);
      }
    }
    system.Settle();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CloneBatch64)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_IdcPipeRoundTrip(benchmark::State& state) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 64 * 1024;
  NepheleSystem system(cfg);
  GuestManager guests(system);
  DomainConfig dcfg;
  dcfg.name = "p";
  dcfg.max_clones = 2;
  dcfg.with_vif = false;
  auto dom = guests.Launch(dcfg, std::make_unique<UdpReadyApp>(UdpReadyConfig{}));
  system.Settle();
  auto pipe = IdcPipe::Create(system.hypervisor(), *dom);
  (void)guests.ContextOf(*dom)->Fork(1, nullptr);
  system.Settle();
  DomId child = system.hypervisor().FindDomain(*dom)->children.front();
  std::vector<std::uint8_t> payload(256, 0x55);
  for (auto _ : state) {
    (void)(*pipe)->Write(*dom, payload);
    auto out = (*pipe)->Read(child, 256);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_IdcPipeRoundTrip);

// ---------------------------------------------------------------------
// Gate mode (--json=PATH --suite=clone|sched|loop): a fixed op set measured
// with plain steady_clock loops — small, reproducible op counts rather
// than google-benchmark's adaptive iteration, so a run takes ~a second.
// ---------------------------------------------------------------------

struct OpTiming {
  double ms_per_op = 0.0;
  double ops_per_sec = 0.0;
};

template <typename Op>
OpTiming TimeOps(int iters, Op&& op) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    op();
  }
  double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                  .count();
  OpTiming t;
  t.ms_per_op = ms / iters;
  t.ops_per_sec = t.ms_per_op > 0.0 ? 1000.0 / t.ms_per_op : 0.0;
  return t;
}

void DestroyChildren(NepheleSystem& system, const std::vector<DomId>& children) {
  for (DomId c : children) {
    (void)system.toolstack().DestroyDomain(c);
    if (system.hypervisor().FindDomain(c) != nullptr) {
      (void)system.hypervisor().DestroyDomain(c);
    }
  }
  system.Settle();
}

// Wall cost of CLONEOP stage 1 for a single child. Only the Clone() call is
// timed; settle + teardown run off the clock.
OpTiming MeasureSerialStage1(int iters) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 1024 * 1024;
  NepheleSystem system(cfg);
  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 16;
  dcfg.max_clones = 1u << 20;
  auto parent = system.toolstack().CreateDomain(dcfg);
  system.Settle();
  const Domain* p = system.hypervisor().FindDomain(*parent);
  const Mfn start_info = p->p2m[p->start_info_gfn].mfn;
  double total_ms = 0.0;
  for (int i = 0; i < iters; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto children = system.clone_engine().Clone({*parent, *parent, start_info, 1});
    total_ms += std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          start)
                    .count();
    system.Settle();
    if (!children.ok()) {
      break;
    }
    DestroyChildren(system, *children);
  }
  OpTiming t;
  t.ms_per_op = total_ms / iters;
  t.ops_per_sec = t.ms_per_op > 0.0 ? 1000.0 / t.ms_per_op : 0.0;
  return t;
}

// Wall cost of one 64-child batch (stage 1) — the BM_CloneBatch64 figure.
OpTiming MeasureBatch64(int batches) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 2 * 1024 * 1024;
  NepheleSystem system(cfg);
  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 64;
  dcfg.max_clones = 1u << 20;
  auto parent = system.toolstack().CreateDomain(dcfg);
  system.Settle();
  const Domain* p = system.hypervisor().FindDomain(*parent);
  const Mfn start_info = p->p2m[p->start_info_gfn].mfn;
  double total_ms = 0.0;
  for (int i = 0; i < batches; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto children = system.clone_engine().Clone({*parent, *parent, start_info, 64});
    total_ms += std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          start)
                    .count();
    system.Settle();
    if (!children.ok()) {
      break;
    }
    DestroyChildren(system, *children);
  }
  OpTiming t;
  t.ms_per_op = total_ms / batches;
  t.ops_per_sec = t.ms_per_op > 0.0 ? 1000.0 / t.ms_per_op : 0.0;
  return t;
}

// Scheduler round trips. warm_pool_capacity 0 keeps every acquire cold
// (full dispatch: window, batch, grant); the warm variant parks the child
// between rounds so every acquire is a pool hit.
OpTiming MeasureSchedulerRoundTrip(std::size_t warm_pool_capacity, int iters) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  cfg.sched.warm_pool_capacity = warm_pool_capacity;
  NepheleSystem system(cfg);
  CloneScheduler sched(system);
  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 1u << 20;
  auto parent = system.toolstack().CreateDomain(dcfg);
  system.Settle();
  DomId got = kDomInvalid;
  auto round = [&] {
    got = kDomInvalid;
    (void)sched.Acquire({kDom0, *parent, kInvalidMfn, 1}, [&got](Result<DomId> r) {
      if (r.ok()) {
        got = *r;
      }
    });
    system.Settle();
    if (got != kDomInvalid) {
      (void)sched.Release(got);
      system.Settle();
    }
  };
  if (warm_pool_capacity > 0) {
    round();  // prime the pool off the clock
  }
  return TimeOps(iters, round);
}

// Event-loop post/run churn at the NGINX datapath's depth (4 workers x 400
// connections = 1600 pending events): every event re-posts itself a few
// microseconds ahead, like a packet hop. Returns events per second.
double MeasureLoopChurn(std::size_t pending, std::size_t total_events) {
  EventLoop loop;
  Rng rng(7);
  std::size_t posted = 0;
  struct Hop {
    EventLoop* loop;
    Rng* rng;
    std::size_t* posted;
    std::size_t total;
    void operator()() const {
      if (*posted < total) {
        ++*posted;
        loop->Post(SimDuration::Nanos(3000 + static_cast<std::int64_t>(rng->NextBelow(64))),
                   *this);
      }
    }
  };
  for (std::size_t i = 0; i < pending; ++i) {
    ++posted;
    loop.Post(SimDuration::Nanos(static_cast<std::int64_t>(rng.NextBelow(500))),
              Hop{&loop, &rng, &posted, total_events});
  }
  auto start = std::chrono::steady_clock::now();
  std::size_t ran = loop.Run();
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return s > 0.0 ? static_cast<double>(ran) / s : 0.0;
}

// Guest TCP data segments over `flows` established flows: each is one
// flow-table lookup plus delivery. Returns lookups per second.
double MeasureFlowLookups(std::uint16_t flows, std::size_t lookups) {
  MiniStack stack(nullptr);
  (void)stack.TcpListen(80);
  std::size_t delivered = 0;
  stack.SetDeliveryHandler([&delivered](const Packet&) { ++delivered; });
  std::vector<Packet> segments(flows);
  for (std::uint16_t c = 0; c < flows; ++c) {
    Packet& p = segments[c];
    p.proto = IpProto::kTcp;
    p.src_ip = MakeIpv4(10, 8, 255, 1);
    p.src_port = static_cast<std::uint16_t>(10000 + c);
    p.dst_ip = MakeIpv4(10, 8, 0, 2);
    p.dst_port = 80;
    stack.OnFrameReceived(p);  // implicit accept
  }
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lookups; ++i) {
    stack.OnFrameReceived(segments[i % flows]);
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  benchmark::DoNotOptimize(delivered);
  return s > 0.0 ? static_cast<double>(lookups) / s : 0.0;
}

int RunGateMode(const BenchArgs& args) {
  const std::string suite = args.Flag("suite", "clone");
  BenchJsonWriter json(suite);
  if (suite == "clone") {
    OpTiming serial = MeasureSerialStage1(64);
    OpTiming batch64 = MeasureBatch64(6);
    json.Add("serial_stage1_ms", serial.ms_per_op, "ms", MetricDir::kLowerIsBetter,
             MetricKind::kWall);
    json.Add("serial_stage1_ops_per_sec", serial.ops_per_sec, "ops_per_sec",
             MetricDir::kHigherIsBetter, MetricKind::kWall);
    json.Add("batch64_t1_ms", batch64.ms_per_op, "ms", MetricDir::kLowerIsBetter,
             MetricKind::kWall);
  } else if (suite == "sched") {
    OpTiming dispatch = MeasureSchedulerRoundTrip(0, 64);
    OpTiming warm = MeasureSchedulerRoundTrip(4, 64);
    json.Add("dispatch_ms", dispatch.ms_per_op, "ms", MetricDir::kLowerIsBetter,
             MetricKind::kWall);
    json.Add("dispatch_ops_per_sec", dispatch.ops_per_sec, "ops_per_sec",
             MetricDir::kHigherIsBetter, MetricKind::kWall);
    json.Add("warm_hit_ms", warm.ms_per_op, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
    json.Add("warm_hit_ops_per_sec", warm.ops_per_sec, "ops_per_sec",
             MetricDir::kHigherIsBetter, MetricKind::kWall);
  } else if (suite == "loop") {
    json.Add("post_run_events_per_sec", MeasureLoopChurn(1600, 2'000'000), "ops_per_sec",
             MetricDir::kHigherIsBetter, MetricKind::kWall);
    json.Add("flow_lookups_per_sec", MeasureFlowLookups(400, 8'000'000), "ops_per_sec",
             MetricDir::kHigherIsBetter, MetricKind::kWall);
  } else {
    std::fprintf(stderr, "unknown --suite=%s (clone | sched | loop)\n", suite.c_str());
    return 2;
  }
  return json.WriteFile(args.json_path()) ? 0 : 1;
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) {
  using namespace nephele;
  std::vector<std::string> passthrough;
  BenchArgs args(argc, argv, {}, {"json", "suite"}, &passthrough);
  if (!args.json_path().empty()) {
    return RunGateMode(args);
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(passthrough.size());
  for (std::string& s : passthrough) {
    bench_argv.push_back(s.data());
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
