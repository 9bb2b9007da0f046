// The heavy-traffic request layer (ctest label `load`): seeded arrival
// processes with statistical oracles, the open-loop generator, and the
// request-cloning first-response-wins dispatcher with its exact accounting
// identity
//
//   req/dispatched = req/wins + req/cancelled + req/rejected
//
// checked at quiescent points, under fault injection, and across reruns.
// The stochastic-dominance test reproduces the core claim of
// the request-cloning model (arXiv 2002.04416): duplicating every request
// to d=2 cloned instances and cancelling the loser cuts the latency
// distribution at every quantile at moderate utilization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/faas/backend.h"
#include "src/faas/gateway.h"
#include "src/fault/fault.h"
#include "src/guest/guest_manager.h"
#include "src/load/arrival.h"
#include "src/load/dispatch.h"
#include "src/load/load_gen.h"
#include "src/obs/tsdb/alarm.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sched/scheduler.h"
#include "src/toolstack/domain_config.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

// ---------------------------------------------------------------------------
// Arrival-process statistical oracles. These draw gaps straight from
// ArrivalProcess (no event loop), so long simulated windows cost nothing:
// the tolerances below sit at >= 3 sigma of the sample statistics.
// ---------------------------------------------------------------------------

struct GapStats {
  double mean_s = 0;
  double cv = 0;  // coefficient of variation of the inter-arrival gaps
};

GapStats DrawGaps(ArrivalProcess& process, std::size_t n) {
  double sum = 0;
  double sum_sq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double gap = process.NextGap().ToSeconds();
    sum += gap;
    sum_sq += gap * gap;
  }
  GapStats stats;
  stats.mean_s = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - stats.mean_s * stats.mean_s;
  stats.cv = std::sqrt(std::max(var, 0.0)) / stats.mean_s;
  return stats;
}

TEST(ArrivalOracleTest, PoissonRateAndCvWithinBand) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.rate_rps = 500.0;
  ArrivalProcess process(cfg, /*seed=*/11);
  GapStats stats = DrawGaps(process, 100000);
  // Empirical rate within 2% (sample sd ~0.3%); exponential gaps have CV 1.
  EXPECT_NEAR(1.0 / stats.mean_s, process.MeanRate(), 0.02 * process.MeanRate());
  EXPECT_GT(stats.cv, 0.95);
  EXPECT_LT(stats.cv, 1.05);
}

TEST(ArrivalOracleTest, BurstyRateMatchesDwellWeightedMixAndOverdisperses) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kBursty;
  cfg.rate_rps = 200.0;
  cfg.burst_rate_rps = 2000.0;
  cfg.calm_dwell_mean = SimDuration::Seconds(2);
  cfg.burst_dwell_mean = SimDuration::Millis(250);
  ArrivalProcess process(cfg, /*seed=*/12);
  // MeanRate: (200*2 + 2000*0.25) / 2.25 = 400 req/s.
  EXPECT_NEAR(process.MeanRate(), 400.0, 1e-9);
  // ~2000 simulated seconds: the dwell-cycle noise is down to ~2%.
  GapStats stats = DrawGaps(process, 800000);
  EXPECT_NEAR(1.0 / stats.mean_s, process.MeanRate(), 0.10 * process.MeanRate());
  // Mixing two exponential regimes overdisperses the gaps well past CV 1.
  EXPECT_GT(stats.cv, 1.2);
  EXPECT_GT(process.state_switches(), 100u);
}

TEST(ArrivalOracleTest, DiurnalPeakTroughRatioAndMean) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.rate_rps = 200.0;
  cfg.diurnal_amplitude = 0.8;
  cfg.diurnal_period = SimDuration::Seconds(120);
  ArrivalProcess process(cfg, /*seed=*/13);
  const double period_s = cfg.diurnal_period.ToSeconds();
  const double horizon_s = 10 * period_s;
  // Bin arrivals by phase across exactly 10 periods.
  constexpr int kBins = 8;
  std::vector<double> bins(kBins, 0);
  double t = 0;
  double total = 0;
  for (;;) {
    t += process.NextGap().ToSeconds();
    if (t >= horizon_s) {
      break;
    }
    const double phase = std::fmod(t, period_s) / period_s;
    bins[static_cast<int>(phase * kBins) % kBins] += 1;
    total += 1;
  }
  // The sinusoid integrates to zero over whole periods: the overall rate is
  // the configured baseline.
  EXPECT_NEAR(total / horizon_s, cfg.rate_rps, 0.05 * cfg.rate_rps);
  // Peak phase bin (sin ~ +1, bin 2 of 8) vs trough bin (sin ~ -1, bin 6):
  // with amplitude 0.8 the expected ratio is ~6; demand a conservative 3x.
  EXPECT_GT(bins[2], 3.0 * std::max(bins[6], 1.0));
}

// ---------------------------------------------------------------------------
// Open-loop generator.
// ---------------------------------------------------------------------------

TEST(LoadGeneratorTest, OpenLoopEmitsSeededMonotonicRequests) {
  EventLoop loop;
  MetricsRegistry metrics;
  LoadConfig cfg;
  cfg.arrival.rate_rps = 1000.0;
  cfg.user_population = 10'000'000;
  cfg.seed = 21;
  LoadGenerator generator(loop, cfg, metrics);
  std::vector<LoadRequest> seen;
  generator.Start(SimDuration::Seconds(1),
                  [&seen](const LoadRequest& r) { seen.push_back(r); });
  loop.Run();
  ASSERT_GT(seen.size(), 800u);
  EXPECT_EQ(metrics.CounterValue("load/generated"), seen.size());
  EXPECT_EQ(generator.generated(), seen.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].id, i + 1);
    EXPECT_LT(seen[i].user, cfg.user_population);
    if (i > 0) {
      EXPECT_GT(seen[i].arrival.ns(), seen[i - 1].arrival.ns());
    }
  }
}

TEST(LoadGeneratorTest, BurstyRunRecordsStateSwitches) {
  EventLoop loop;
  MetricsRegistry metrics;
  LoadConfig cfg;
  cfg.arrival.kind = ArrivalKind::kBursty;
  cfg.arrival.calm_dwell_mean = SimDuration::Millis(100);
  cfg.arrival.burst_dwell_mean = SimDuration::Millis(50);
  cfg.seed = 22;
  LoadGenerator generator(loop, cfg, metrics);
  generator.Start(SimDuration::Seconds(2), [](const LoadRequest&) {});
  loop.Run();
  EXPECT_GT(metrics.CounterValue("load/state_switches"), 4u);
}

// ---------------------------------------------------------------------------
// Scheduler-mode dispatch: one parent, duplicates acquired from the clone
// scheduler and released to the warm pool on resolution.
// ---------------------------------------------------------------------------

class ScheduledLoadRun {
 public:
  explicit ScheduledLoadRun(const SystemConfig& cfg)
      : system_(cfg), sched_(system_), dispatcher_(system_, sched_), generator_(system_) {
    DomainConfig dcfg;
    dcfg.name = "load-parent";
    dcfg.memory_mb = 4;
    dcfg.max_clones = 512;
    dcfg.with_vif = true;
    auto parent = system_.toolstack().CreateDomain(dcfg);
    EXPECT_TRUE(parent.ok());
    system_.Settle();
    dispatcher_.SetParent(*parent);
    base_domains_ = system_.hypervisor().NumDomains();
  }

  void Run(SimDuration duration) {
    generator_.Start(duration,
                     [this](const LoadRequest& r) { dispatcher_.Submit(r); });
    system_.Settle();
  }

  // The per-duplicate accounting identity plus the no-leak frame: nothing
  // in flight, nothing queued anywhere, and every clone either parked in
  // the warm pool or destroyed.
  void ExpectQuiescentAccounting() {
    EXPECT_EQ(dispatcher_.dispatched(),
              dispatcher_.wins() + dispatcher_.cancelled() + dispatcher_.rejected());
    EXPECT_EQ(dispatcher_.in_flight(), 0u);
    EXPECT_EQ(dispatcher_.pending(), 0u);
    EXPECT_EQ(sched_.TotalQueued(), 0u);
    EXPECT_EQ(system_.metrics().GaugeValue("req/in_flight"), 0);
    EXPECT_EQ(system_.hypervisor().NumDomains(), base_domains_ + sched_.TotalPooled());
    ExpectFrameConsistency(system_);
  }

  NepheleSystem system_;
  CloneScheduler sched_;
  RequestCloneDispatcher dispatcher_;
  LoadGenerator generator_;
  std::size_t base_domains_ = 0;
};

SystemConfig ScheduledConfig() {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  cfg.sched.warm_pool_capacity = 8;
  cfg.sched.max_queue_depth = 64;
  cfg.load.arrival.rate_rps = 1000.0;
  cfg.load.clone_factor = 2;
  cfg.load.max_concurrent = 8;
  return cfg;
}

TEST(DispatchAccountingTest, FirstResponseWinsExactAccounting) {
  SystemConfig cfg = ScheduledConfig();
  cfg.load.clone_factor = 3;
  ScheduledLoadRun run(cfg);
  run.Run(SimDuration::Millis(500));
  const std::uint64_t submitted = run.dispatcher_.wins() + run.dispatcher_.failed();
  EXPECT_EQ(submitted, run.generator_.generated());
  // Utilization ~3%: nothing is rejected, so the identity decomposes into
  // one win and d-1 cancellations per request, exactly.
  EXPECT_EQ(run.dispatcher_.rejected(), 0u);
  EXPECT_EQ(run.dispatcher_.failed(), 0u);
  EXPECT_EQ(run.dispatcher_.wins(), run.generator_.generated());
  EXPECT_EQ(run.dispatcher_.cancelled(), 2 * run.dispatcher_.wins());
  EXPECT_EQ(run.dispatcher_.dispatched(), 3 * run.generator_.generated());
  run.ExpectQuiescentAccounting();
}

TEST(DispatchAccountingTest, DispatchFaultDoesNotStrandOrLeak) {
  SystemConfig cfg = ScheduledConfig();
  cfg.load.arrival.rate_rps = 2000.0;
  cfg.load.max_concurrent = 4;
  ScheduledLoadRun run(cfg);
  // Fail the first cold batch dispatch: its tickets come back as errors and
  // their duplicates must count rejected — not strand a warm child, not
  // leak a pending request, not wedge a scheduler queue.
  ASSERT_TRUE(run.system_.fault_injector()
                  .Arm("sched/dispatch",
                       FaultSpec::NthHit(1, StatusCode::kUnavailable, "injected"))
                  .ok());
  run.Run(SimDuration::Millis(500));
  EXPECT_GE(run.system_.metrics().CounterValue("sched/batch_failures"), 1u);
  EXPECT_GE(run.dispatcher_.rejected(), 1u);
  EXPECT_GT(run.dispatcher_.wins(), 0u);
  run.ExpectQuiescentAccounting();
}

// Identical config + seed must produce a byte-identical metrics export
// across reruns.
std::string RunDigest() {
  SystemConfig cfg = ScheduledConfig();
  cfg.load.arrival.rate_rps = 2000.0;
  cfg.load.seed = 7;
  ScheduledLoadRun run(cfg);
  run.Run(SimDuration::Millis(400));
  return run.system_.metrics().ExportJson();
}

TEST(DispatchDeterminismTest, DigestIdenticalAcrossReruns) {
  const std::string once = RunDigest();
  const std::string again = RunDigest();
  EXPECT_EQ(once, again);
  EXPECT_NE(once.find("req/latency_ns"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stochastic dominance (the core claim of arXiv 2002.04416): at moderate
// utilization, first-response-wins with d=2 sits below d=1 at every
// reported quantile, on a fixed seed set.
// ---------------------------------------------------------------------------

std::vector<std::int64_t> WinLatencies(unsigned clone_factor, std::uint64_t seed) {
  SystemConfig cfg = ScheduledConfig();
  cfg.hypervisor.pool_frames = 512 * 1024;
  cfg.load.clone_factor = clone_factor;
  cfg.load.max_concurrent = 4;
  cfg.load.seed = seed;
  // Heavy requests (E[S] ~ 4.5 ms): the cloning model pays one extra warm
  // grant (~ms) per duplicate, so the min-of-d service benefit only shows
  // when service dominates the grant. This is the regime the model targets.
  cfg.load.service_pages = 2048;
  cfg.load.service_p9_rpcs = 100;
  cfg.load.service_net_packets = 50;
  // ~0.4 utilization of the 4 servers, priced off the cost model.
  const double mean_service_s =
      RequestCloneDispatcher::MeanServiceTime(cfg.load, cfg.costs).ToSeconds();
  cfg.load.arrival.rate_rps = 0.4 * 4 / mean_service_s;
  ScheduledLoadRun run(cfg);
  std::vector<std::int64_t> latencies;
  run.dispatcher_.RecordLatenciesTo(&latencies);
  run.Run(SimDuration::Seconds(2));
  // Drop the cold-start transient (initial clones cost milliseconds; both
  // arms pay it, but it is not what the quantiles are about).
  latencies.erase(latencies.begin(),
                  latencies.begin() +
                      std::min<std::ptrdiff_t>(50, static_cast<std::ptrdiff_t>(latencies.size())));
  return latencies;
}

std::int64_t Quantile(std::vector<std::int64_t> values, double q) {
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

TEST(RequestCloningDominanceTest, D2DominatesD1AtEveryQuantile) {
  std::vector<std::int64_t> d1;
  std::vector<std::int64_t> d2;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<std::int64_t> a = WinLatencies(1, seed);
    std::vector<std::int64_t> b = WinLatencies(2, seed);
    d1.insert(d1.end(), a.begin(), a.end());
    d2.insert(d2.end(), b.begin(), b.end());
  }
  ASSERT_GT(d1.size(), 2500u);
  ASSERT_GT(d2.size(), 2500u);
  EXPECT_LT(Quantile(d2, 0.50), Quantile(d1, 0.50));
  EXPECT_LT(Quantile(d2, 0.90), Quantile(d1, 0.90));
  EXPECT_LT(Quantile(d2, 0.99), Quantile(d1, 0.99));
}

// ---------------------------------------------------------------------------
// The req_tail alarm: sustained overload pushes the windowed p99 gauge past
// the 50 ms raise threshold and the stock rule fires.
// ---------------------------------------------------------------------------

TEST(ReqTailAlarmTest, RaisesUnderSustainedOverload) {
  SystemConfig cfg = ScheduledConfig();
  cfg.load.arrival.rate_rps = 20000.0;  // far past one server's ~4k/s
  cfg.load.clone_factor = 1;
  cfg.load.max_concurrent = 1;
  cfg.tsdb.tick_interval = SimDuration::Millis(5);
  cfg.tsdb.ring_capacity = 64;
  ScheduledLoadRun run(cfg);
  TsdbCollector tsdb(run.system_.metrics(), run.system_.loop(), run.system_.config().tsdb);
  AlarmEngine alarms(tsdb, run.system_.metrics());
  for (const AlarmRule& rule : AlarmEngine::DefaultNepheleRules()) {
    alarms.AddRule(rule);
  }
  tsdb.ScheduleTicks(60);  // 300 ms of ticks alongside the overload
  run.Run(SimDuration::Millis(300));
  EXPECT_GE(run.system_.metrics().CounterValue("alarm/req_tail/raised_total"), 1u);
  run.ExpectQuiescentAccounting();
}

// ---------------------------------------------------------------------------
// Fleet mode + gateway scale-down (the regression this PR fixes): retiring
// an instance must never strand the only unfinished duplicate of a request.
// ---------------------------------------------------------------------------

struct FleetRun {
  explicit FleetRun(SystemConfig cfg)
      : system(cfg), guests(system), sched(system), dispatcher(system, sched) {
    (void)system.devices().hostfs().CreateFile("/srv/guest-root/python3");
    UnikernelBackend::Config bcfg;
    bcfg.first_report_latency = SimDuration::Millis(50);
    bcfg.k8s_report_latency = SimDuration::Millis(50);
    bcfg.warm_report_latency = SimDuration::Millis(10);
    backend.emplace(guests, bcfg);
    backend->AttachScheduler(&sched);
    backend->AttachDispatcher(&dispatcher);
  }

  void DeployThree() {
    ASSERT_TRUE(backend->Deploy().ok());
    system.Settle();
    ASSERT_TRUE(backend->ScaleUp().ok());
    ASSERT_TRUE(backend->ScaleUp().ok());
    system.Settle();
    ASSERT_EQ(backend->ReadyInstances(), 3u);
    ASSERT_EQ(dispatcher.idle_fleet_size(), 3u);
  }

  void Submit(std::uint64_t id) {
    LoadRequest r;
    r.id = id;
    r.user = id;
    r.arrival = system.Now();
    dispatcher.Submit(r);
  }

  NepheleSystem system;
  GuestManager guests;
  CloneScheduler sched;
  RequestCloneDispatcher dispatcher;
  std::optional<UnikernelBackend> backend;
};

SystemConfig FleetConfig(unsigned clone_factor) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 512 * 1024;
  cfg.sched.warm_pool_capacity = 8;
  cfg.load.clone_factor = clone_factor;
  return cfg;
}

TEST(FleetScaleDownTest, RefusesWhenEveryInstanceHoldsASoleDuplicate) {
  FleetRun run(FleetConfig(/*clone_factor=*/1));
  run.DeployThree();
  // d=1: every busy instance holds its request's only duplicate.
  run.Submit(1);
  run.Submit(2);
  run.Submit(3);
  ASSERT_EQ(run.dispatcher.idle_fleet_size(), 0u);
  // The old code retired instances_.back() unconditionally, stranding the
  // request riding it. Now the scan finds no retirable instance.
  Status s = run.backend->ScaleDown();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(run.backend->TotalInstances(), 3u);
  run.system.Settle();
  // Nothing was stranded: all three requests complete.
  EXPECT_EQ(run.dispatcher.wins(), 3u);
  EXPECT_EQ(run.dispatcher.in_flight(), 0u);
  EXPECT_EQ(run.dispatcher.dispatched(),
            run.dispatcher.wins() + run.dispatcher.cancelled() + run.dispatcher.rejected());
}

TEST(FleetScaleDownTest, RetiresRedundantDuplicateAndCancelsIt) {
  FleetRun run(FleetConfig(/*clone_factor=*/2));
  run.DeployThree();
  // Two d=2 requests over three instances: request 1 occupies the root and
  // the first child; request 2 gets the second child plus one pending
  // duplicate. The youngest instance therefore serves a *redundant*
  // duplicate (its request still has the pending one), so scale-down may
  // retire it — cancelling the duplicate — without stranding anyone.
  run.Submit(1);
  run.Submit(2);
  ASSERT_EQ(run.dispatcher.idle_fleet_size(), 0u);
  ASSERT_EQ(run.dispatcher.pending(), 1u);
  ASSERT_TRUE(run.backend->ScaleDown().ok());
  EXPECT_EQ(run.backend->TotalInstances(), 2u);
  EXPECT_GE(run.dispatcher.cancelled(), 1u);
  run.system.Settle();
  // Both requests complete on the surviving instances.
  EXPECT_EQ(run.dispatcher.wins(), 2u);
  EXPECT_EQ(run.dispatcher.in_flight(), 0u);
  EXPECT_EQ(run.dispatcher.dispatched(),
            run.dispatcher.wins() + run.dispatcher.cancelled() + run.dispatcher.rejected());
  ExpectFrameConsistency(run.system);
}

// End-to-end: the gateway's request-level run streams the generator into
// the dispatcher over the fleet while the RPS autoscaler adds instances,
// then drains the in-flight tail. Accounting must close exactly and the
// result mirror the dispatcher's counters.
TEST(GatewayRequestLoadTest, AutoscalesAndDrainsWithExactAccounting) {
  SystemConfig cfg = FleetConfig(/*clone_factor=*/2);
  cfg.load.arrival.rate_rps = 200.0;
  FleetRun run(cfg);
  GatewayConfig gcfg;
  gcfg.query_interval = SimDuration::Seconds(1);
  gcfg.max_instances = 4;
  OpenFaasGateway gateway(run.system.loop(), *run.backend, gcfg);
  LoadGenerator generator(run.system);
  RequestRunResult result =
      gateway.RunRequestLoad(SimDuration::Seconds(10), generator, run.dispatcher);
  EXPECT_GE(result.series.size(), 9u);
  EXPECT_GT(result.generated, 1500u);
  EXPECT_EQ(result.generated, generator.generated());
  // 200 rps over one instance's ~10 rps threshold: the autoscaler scales up.
  EXPECT_GT(run.backend->TotalInstances(), 1u);
  // The drain leaves nothing in flight and the identity closes.
  EXPECT_EQ(run.dispatcher.in_flight(), 0u);
  EXPECT_EQ(run.dispatcher.pending(), 0u);
  EXPECT_EQ(result.wins, run.dispatcher.wins());
  EXPECT_EQ(result.wins + run.dispatcher.failed(), result.generated);
  EXPECT_EQ(run.dispatcher.dispatched(),
            result.wins + result.cancelled + result.rejected);
  ExpectFrameConsistency(run.system);
}

}  // namespace
}  // namespace nephele
