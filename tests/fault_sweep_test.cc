// Exhaustive fault-sweep harness (the test half of the fault-injection
// tentpole): drives one clone-family scenario that crosses every registered
// fault point, then re-runs it with a fault armed at each point — first,
// middle and last hit, plus seeded-probability plans — and asserts the
// system-wide safety invariants after every variant:
//
//  * frame conservation: free + allocated == total, no frame both freed and
//    mapped, shared refcounts equal the number of p2m references;
//  * the parent's memory is never corrupted by a failed clone;
//  * after DisarmAll() the same system boots and clones successfully;
//  * destroying every domain returns the pool to its initial size (nothing
//    leaked, nothing double-freed).
//
// The coverage test fails if any registered point is never hit, so a fault
// point added to a subsystem without extending the scenario breaks the
// build's tests rather than silently going unswept.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/core/idc.h"
#include "src/core/system.h"
#include "src/sched/scheduler.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

constexpr std::uint8_t kPattern[8] = {0xa5, 1, 2, 3, 4, 5, 6, 7};

class FaultSweepTest : public ::testing::Test {
 protected:
  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 64 * 1024;  // 256 MiB pool
    return cfg;
  }

  static DomainConfig ParentConfig() {
    DomainConfig cfg;
    cfg.name = "sweep";
    cfg.memory_mb = 4;
    cfg.max_clones = 64;
    cfg.with_vif = true;
    cfg.with_p9fs = true;
    cfg.with_vbd = true;
    cfg.vbd_size_mb = 1;
    return cfg;
  }

  // First data gfn of the guest layout ([0, text) | [text, text+data)).
  static Gfn FirstDataGfn() { return static_cast<Gfn>(ParentConfig().image_text_pages); }

  struct ScenarioRun {
    DomId parent = kDomInvalid;
    bool pattern_written = false;
    std::vector<DomId> children;
  };

  // The clone-family workload. Every step tolerates injected failures — the
  // harness asserts invariants afterwards, not step success.
  static ScenarioRun RunScenario(NepheleSystem& sys) {
    ScenarioRun run;
    Toolstack& ts = sys.toolstack();
    Hypervisor& hv = sys.hypervisor();

    auto parent = ts.CreateDomain(ParentConfig());
    sys.Settle();
    if (!parent.ok()) {
      return run;
    }
    run.parent = *parent;

    // IDC primitives cover the grant and evtchn fault points.
    auto region = IdcRegion::Create(hv, run.parent, 2);
    auto channel = IdcChannel::Create(hv, run.parent);
    if (region.ok()) {
      (void)(*region).StoreU32(run.parent, 0, 0xabcd1234u);
    }
    (void)channel;

    // Dirty a few data pages so clones share real contents.
    bool wrote = true;
    for (Gfn i = 0; i < 4; ++i) {
      wrote = hv.WriteGuestPage(run.parent, FirstDataGfn() + i, 0, kPattern, sizeof(kPattern))
                  .ok() &&
              wrote;
    }
    run.pattern_written = wrote;

    // An explicit transaction covers the txn_commit fault point.
    XenstoreDaemon& xs = sys.xenstore();
    auto txn = xs.TransactionStart();
    if (txn.ok()) {
      (void)xs.TxnWrite(*txn, "/sweep/marker", "1");
      (void)xs.TransactionEnd(*txn, /*commit=*/true);
    }

    // A batch of two clones crosses every stage-1, stage-2 and device point.
    const Domain* d = hv.FindDomain(run.parent);
    if (d != nullptr && d->start_info_gfn != kInvalidGfn) {
      auto children = sys.clone_engine().Clone({run.parent, run.parent,
                                               d->p2m[d->start_info_gfn].mfn, 2});
      sys.Settle();
      if (children.ok()) {
        run.children = *children;
      }
    }

    // Child COW writes and a memory reset (cow_resolve and clone/reset).
    for (DomId c : run.children) {
      if (hv.FindDomain(c) == nullptr) {
        continue;
      }
      (void)hv.WriteGuestPage(c, FirstDataGfn(), 0, kPattern, sizeof(kPattern));
      (void)sys.clone_engine().CloneReset(kDom0, c);
    }
    if (!run.children.empty() && hv.FindDomain(run.children.back()) != nullptr) {
      (void)ts.DestroyDomain(run.children.back());
      sys.Settle();
    }

    // A lazy clone crosses the post-copy points: the guest touch of a still
    // not-present page pokes lazy/demand_fault, and the stream batches (the
    // auto-prefetcher plus the explicit finish) poke lazy/stream. The touch
    // lands before the settle so the prefetcher cannot have won the race.
    d = hv.FindDomain(run.parent);
    if (d != nullptr && d->start_info_gfn != kInvalidGfn) {
      auto lazy_kids = sys.clone_engine().Clone(
          {run.parent, run.parent, d->p2m[d->start_info_gfn].mfn, 1, /*lazy=*/true});
      if (lazy_kids.ok() && !lazy_kids->empty()) {
        const DomId lc = lazy_kids->front();
        if (const Domain* cd = hv.FindDomain(lc); cd != nullptr) {
          // Touch the highest deferred gfn: the stream cursor walks upward,
          // so this page is reliably still not-present.
          for (std::size_t g = cd->p2m.size(); g-- > 0;) {
            if (cd->p2m[g].mfn == kInvalidMfn) {
              (void)hv.TouchGuestPages(lc, static_cast<Gfn>(g), 1);
              break;
            }
          }
        }
        sys.Settle();
        (void)sys.clone_engine().FinishStreaming(lc);
      } else {
        sys.Settle();
      }
    }

    // One more clone keeps the tail of the hit sequence on the clone path,
    // so "last hit" variants land after teardown has already happened once.
    d = hv.FindDomain(run.parent);
    if (d != nullptr && d->start_info_gfn != kInvalidGfn) {
      (void)sys.clone_engine().Clone({run.parent, run.parent, d->p2m[d->start_info_gfn].mfn, 1});
      sys.Settle();
    }
    return run;
  }

  // Frame-table consistency lives in tests/frame_invariants.h (shared with
  // the concurrency stress suite).

  static void ExpectParentPatternIntact(NepheleSystem& sys, const ScenarioRun& run) {
    if (run.parent == kDomInvalid || !run.pattern_written ||
        sys.hypervisor().FindDomain(run.parent) == nullptr) {
      return;
    }
    for (Gfn i = 0; i < 4; ++i) {
      std::uint8_t got[sizeof(kPattern)] = {};
      ASSERT_TRUE(
          sys.hypervisor().ReadGuestPage(run.parent, FirstDataGfn() + i, 0, got, sizeof(got)).ok());
      EXPECT_EQ(std::memcmp(got, kPattern, sizeof(kPattern)), 0)
          << "parent page " << (FirstDataGfn() + i) << " corrupted by faulted clone";
    }
  }

  // One full faulted variant: arm, run, then check every invariant plus
  // recovery (a clean clone after DisarmAll) and leak-free teardown.
  static void RunFaultedVariant(const std::string& point, const FaultSpec& spec) {
    SCOPED_TRACE("fault point: " + point);
    NepheleSystem sys(SmallSystem());
    FaultInjector& fi = sys.fault_injector();
    const std::size_t initial_free = sys.hypervisor().FreePoolFrames();

    ASSERT_TRUE(fi.Arm(point, spec).ok()) << "unknown fault point " << point;
    ScenarioRun run = RunScenario(sys);
    fi.DisarmAll();

    ExpectFrameConsistency(sys);
    ExpectParentPatternIntact(sys, run);

    // Recovery: the same system must boot and clone cleanly after the fault.
    DomainConfig cfg = ParentConfig();
    cfg.name = "retry";
    auto retry = sys.toolstack().CreateDomain(cfg);
    sys.Settle();
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    const Domain* d = sys.hypervisor().FindDomain(*retry);
    ASSERT_NE(d, nullptr);
    auto kids =
        sys.clone_engine().Clone({*retry, *retry, d->p2m[d->start_info_gfn].mfn, 1});
    sys.Settle();
    EXPECT_TRUE(kids.ok()) << kids.status().ToString();
    ExpectFrameConsistency(sys);

    // Full teardown restores the pool exactly: nothing leaked, nothing
    // double-freed anywhere in the faulted run.
    std::vector<DomId> doms = sys.hypervisor().DomainIds();
    std::sort(doms.rbegin(), doms.rend());  // children before parents
    for (DomId dom : doms) {
      if (dom == kDom0) {
        continue;
      }
      (void)sys.toolstack().DestroyDomain(dom);
      if (sys.hypervisor().FindDomain(dom) != nullptr) {
        (void)sys.hypervisor().DestroyDomain(dom);
      }
    }
    sys.Settle();
    EXPECT_EQ(sys.hypervisor().FreePoolFrames(), initial_free);
  }

  // Per-point hit counts of the unfaulted scenario; drives nth-hit variants.
  static std::map<std::string, std::uint64_t> BaselineHits() {
    NepheleSystem sys(SmallSystem());
    RunScenario(sys);
    std::map<std::string, std::uint64_t> hits;
    for (const std::string& name : sys.fault_injector().PointNames()) {
      hits[name] = sys.fault_injector().HitCount(name);
    }
    return hits;
  }
};

// Coverage gate: every registered fault point must be exercised by the
// scenario. A new point that the scenario misses fails here by name.
TEST_F(FaultSweepTest, ScenarioCoversEveryRegisteredPoint) {
  std::map<std::string, std::uint64_t> hits = BaselineHits();
  ASSERT_GE(hits.size(), 20u);
  for (const auto& [name, count] : hits) {
    EXPECT_GT(count, 0u) << "fault point never hit by the sweep scenario: " << name;
  }
}

// The deterministic sweep: a single fault armed at every point, on the
// first, a middle and the last hit of the baseline sequence.
TEST_F(FaultSweepTest, NthHitSweepAcrossAllPoints) {
  std::map<std::string, std::uint64_t> baseline = BaselineHits();
  ASSERT_FALSE(baseline.empty());
  for (const auto& [name, hits] : baseline) {
    std::vector<std::uint64_t> nths = {1};
    if (hits >= 3) {
      nths.push_back(hits / 2 + 1);
    }
    if (hits >= 2) {
      nths.push_back(hits);
    }
    for (std::uint64_t nth : nths) {
      SCOPED_TRACE("nth=" + std::to_string(nth));
      RunFaultedVariant(name, FaultSpec::NthHit(nth));
    }
  }
}

// The seeded stochastic sweep: every point under independent per-poke
// probability, several seeds each. Deterministic per seed.
TEST_F(FaultSweepTest, ProbabilitySweepAcrossAllPointsAndSeeds) {
  std::map<std::string, std::uint64_t> baseline = BaselineHits();
  for (const auto& [name, hits] : baseline) {
    (void)hits;
    for (std::uint64_t seed : {1u, 2u, 3u, 5u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      RunFaultedVariant(name, FaultSpec::WithProbability(0.3, seed));
    }
  }
}

// The unfaulted scenario pokes every fault point the same number of times
// on every run, so an nth-hit index names the same poke in every variant.
TEST_F(FaultSweepTest, BaselineHitCountsAreReproducible) {
  EXPECT_EQ(BaselineHits(), BaselineHits());
}

// A multi-point plan behaves like its parts and resets with DisarmAll.
TEST_F(FaultSweepTest, FaultPlanArmsMultiplePoints) {
  NepheleSystem sys(SmallSystem());
  FaultPlan plan;
  plan.Add("xenstore/request", FaultSpec::WithProbability(0.02, 11))
      .Add("hypervisor/frame_alloc", FaultSpec::WithProbability(0.01, 12));
  ASSERT_TRUE(sys.fault_injector().LoadPlan(plan).ok());
  RunScenario(sys);
  sys.fault_injector().DisarmAll();
  ExpectFrameConsistency(sys);

  // Unknown names fail loudly instead of never injecting.
  FaultPlan typo;
  typo.Add("xenstore/reqest", FaultSpec::NthHit(1));
  EXPECT_FALSE(sys.fault_injector().LoadPlan(typo).ok());
}

// Byte-determinism: the same plan against the same workload produces the
// identical metrics export; a different seed produces a different run.
TEST_F(FaultSweepTest, FaultedRunsAreByteDeterministic) {
  auto run_with_seed = [](std::uint64_t seed) {
    NepheleSystem sys(SmallSystem());
    FaultPlan plan;
    plan.Add("hypervisor/frame_alloc", FaultSpec::WithProbability(0.05, seed))
        .Add("xenstore/request", FaultSpec::WithProbability(0.02, seed ^ 0x9e3779b9u));
    EXPECT_TRUE(sys.fault_injector().LoadPlan(plan).ok());
    RunScenario(sys);
    return sys.metrics().ExportJson();
  };
  const std::string a = run_with_seed(7);
  const std::string b = run_with_seed(7);
  EXPECT_EQ(a, b) << "same seed must reproduce the run byte for byte";

  // Seed-sensitivity, asserted on the raw firing pattern (the scenario may
  // fail at the same early hit for two seeds, so whole-run output is not a
  // reliable discriminator).
  auto pattern_for = [](std::uint64_t seed) {
    FaultInjector inj;
    FaultPoint* p = inj.GetPoint("probe");
    EXPECT_TRUE(inj.Arm("probe", FaultSpec::WithProbability(0.5, seed)).ok());
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += p->Poke().ok() ? '.' : 'X';
    }
    return pattern;
  };
  EXPECT_EQ(pattern_for(7), pattern_for(7));
  EXPECT_NE(pattern_for(7), pattern_for(8)) << "seed must alter the draw sequence";
}

// --- Clone-scheduler fault points -----------------------------------------
//
// The scheduler registers its points (sched/admit, sched/dispatch,
// sched/park) only when one is constructed, so the main coverage gate never
// sees them; this section sweeps them with a dedicated scheduler workload:
// a cold batched acquire, releases back into the warm pool, and a warm
// re-acquire — crossing admit, dispatch and park on every run.

class SchedFaultSweepTest : public FaultSweepTest {
 protected:
  static void RunSchedScenario(NepheleSystem& sys, CloneScheduler& sched) {
    auto parent = sys.toolstack().CreateDomain(ParentConfig());
    sys.Settle();
    if (!parent.ok()) {
      return;
    }
    std::vector<DomId> granted;
    auto collect = [&granted](Result<DomId> r) {
      if (r.ok()) {
        granted.push_back(*r);
      }
    };
    (void)sched.Acquire({kDom0, *parent, kInvalidMfn, 2}, collect);
    sys.Settle();
    for (DomId child : granted) {
      (void)sched.Release(child);
    }
    (void)sched.Acquire({kDom0, *parent, kInvalidMfn, 1}, collect);
    sys.Settle();
    if (!granted.empty()) {
      (void)sched.Release(granted.back());
    }
  }

  static void RunSchedFaultedVariant(const std::string& point, const FaultSpec& spec) {
    SCOPED_TRACE("sched fault point: " + point);
    NepheleSystem sys(SmallSystem());
    CloneScheduler sched(sys);
    const std::size_t initial_free = sys.hypervisor().FreePoolFrames();
    ASSERT_TRUE(sys.fault_injector().Arm(point, spec).ok()) << "unknown fault point " << point;
    RunSchedScenario(sys, sched);
    sys.fault_injector().DisarmAll();
    ExpectFrameConsistency(sys);

    // Recovery: the same scheduler must serve a fresh acquire cleanly.
    DomainConfig cfg = ParentConfig();
    cfg.name = "retry";
    auto retry = sys.toolstack().CreateDomain(cfg);
    sys.Settle();
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    bool granted = false;
    ASSERT_TRUE(sched
                    .Acquire({kDom0, *retry, kInvalidMfn, 1},
                             [&granted](Result<DomId> r) { granted = r.ok(); })
                    .ok());
    sys.Settle();
    EXPECT_TRUE(granted);
    ExpectFrameConsistency(sys);

    // Drain the pool, then full teardown restores the frame pool exactly.
    sched.DrainAll();
    sys.Settle();
    std::vector<DomId> doms = sys.hypervisor().DomainIds();
    std::sort(doms.rbegin(), doms.rend());
    for (DomId dom : doms) {
      if (dom == kDom0) {
        continue;
      }
      (void)sys.toolstack().DestroyDomain(dom);
      if (sys.hypervisor().FindDomain(dom) != nullptr) {
        (void)sys.hypervisor().DestroyDomain(dom);
      }
    }
    sys.Settle();
    EXPECT_EQ(sys.hypervisor().FreePoolFrames(), initial_free);
  }
};

// Coverage gate for the scheduler's own points: the sched workload must hit
// all three.
TEST_F(SchedFaultSweepTest, SchedScenarioCoversSchedPoints) {
  NepheleSystem sys(SmallSystem());
  CloneScheduler sched(sys);
  RunSchedScenario(sys, sched);
  for (const char* point : {"sched/admit", "sched/dispatch", "sched/park"}) {
    EXPECT_GT(sys.fault_injector().HitCount(point), 0u)
        << "sched fault point never hit by the sched sweep scenario: " << point;
  }
}

// Deterministic nth-hit sweep of every sched point: first and second hit.
TEST_F(SchedFaultSweepTest, NthHitSweepAcrossSchedPoints) {
  for (const char* point : {"sched/admit", "sched/dispatch", "sched/park"}) {
    for (std::uint64_t nth : {1u, 2u}) {
      SCOPED_TRACE("nth=" + std::to_string(nth));
      RunSchedFaultedVariant(point, FaultSpec::NthHit(nth));
    }
  }
}

// Seeded stochastic sweep of the sched points.
TEST_F(SchedFaultSweepTest, ProbabilitySweepAcrossSchedPoints) {
  for (const char* point : {"sched/admit", "sched/dispatch", "sched/park"}) {
    for (std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      RunSchedFaultedVariant(point, FaultSpec::WithProbability(0.4, seed));
    }
  }
}

// fault/injected in the shared registry mirrors the injector's own total.
TEST_F(FaultSweepTest, InjectedCounterMirrorsRegistry) {
  NepheleSystem sys(SmallSystem());
  ASSERT_TRUE(sys.fault_injector().Arm("toolstack/create_domain", FaultSpec::NthHit(1)).ok());
  RunScenario(sys);
  EXPECT_GE(sys.fault_injector().injected_total(), 1u);
  EXPECT_EQ(sys.metrics().GetCounter("fault/injected").value(),
            sys.fault_injector().injected_total());
}

}  // namespace
}  // namespace nephele
