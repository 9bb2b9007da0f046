// Error-path unit tests for the transactional clone engine: one test per
// stage, asserting the exact injected Status code surfaces to the caller,
// the precise metric counters (clone/rolled_back, fault/injected,
// clone/clones_total), and that the rollback left no trace — the parent's
// p2m, its frames' ownership and sharing, the pool at the pre-clone value,
// parent resumable and re-clonable. Faults halfway through a child's page
// walk cover the rollback of a half-built child.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/system.h"
#include "src/xenstore/path.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

class CloneRollbackTest : public ::testing::Test {
 protected:
  CloneRollbackTest() : system_(SmallSystem()) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 64 * 1024;
    return cfg;
  }

  static DomId BootParent(NepheleSystem& sys, bool with_devices = false) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.memory_mb = 4;
    cfg.max_clones = 32;
    cfg.with_vif = true;
    cfg.with_p9fs = with_devices;
    cfg.with_vbd = with_devices;
    cfg.vbd_size_mb = 1;
    auto dom = sys.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok()) << dom.status().ToString();
    sys.Settle();
    return *dom;
  }
  DomId BootParent(bool with_devices = false) { return BootParent(system_, with_devices); }

  static Mfn StartInfoMfn(NepheleSystem& sys, DomId dom) {
    const Domain* d = sys.hypervisor().FindDomain(dom);
    return d->p2m[d->start_info_gfn].mfn;
  }
  Mfn StartInfoMfn(DomId dom) { return StartInfoMfn(system_, dom); }

  // Hits `point` takes per child in an unfaulted clone of `num_children`
  // children, measured on a fresh system booted exactly like this one.
  static std::uint64_t HitsPerChild(const std::string& point, unsigned num_children,
                                    bool lazy) {
    NepheleSystem dry(SmallSystem());
    DomId parent = BootParent(dry);
    const std::uint64_t before = dry.fault_injector().HitCount(point);
    auto r = dry.clone_engine().Clone(
        {parent, parent, StartInfoMfn(dry, parent), num_children, lazy});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    const std::uint64_t hits = dry.fault_injector().HitCount(point) - before;
    EXPECT_EQ(hits % num_children, 0u) << "children of one batch take the same hits";
    return hits / num_children;
  }

  // Everything of the parent a failed clone must leave as it found it.
  struct ParentSnapshot {
    // Per gfn: the p2m entry's (mfn, writable) and its frame's (owner,
    // refcount, shared).
    std::vector<std::tuple<Mfn, bool, DomId, std::uint32_t, bool>> pages;
    std::size_t shared_frames = 0;
    std::size_t saved_by_sharing = 0;
    std::size_t free_frames = 0;
  };

  ParentSnapshot Snapshot(DomId parent) {
    const Hypervisor& hv = system_.hypervisor();
    const FrameTable& frames = hv.frames();
    ParentSnapshot snap;
    for (const P2mEntry& pe : hv.FindDomain(parent)->p2m) {
      const FrameInfo& f = frames.info(pe.mfn);
      snap.pages.emplace_back(pe.mfn, pe.writable, f.owner, f.refcount, f.shared);
    }
    snap.shared_frames = frames.shared_frames();
    snap.saved_by_sharing = frames.frames_saved_by_sharing();
    snap.free_frames = hv.FreePoolFrames();
    return snap;
  }

  std::uint64_t RolledBack() {
    return system_.metrics().GetCounter("clone/rolled_back").value();
  }
  std::uint64_t Injected() { return system_.metrics().GetCounter("fault/injected").value(); }
  std::uint64_t ClonesTotal() {
    return system_.metrics().GetCounter("clone/clones_total").value();
  }

  // Arms `point` to fail its `nth` hit during a clone of `num_children`
  // children, checks the full rollback contract, then proves an un-faulted
  // clone of the same shape still works.
  void ExpectStage1Rollback(const std::string& point, std::uint64_t nth = 1,
                            unsigned num_children = 1, bool lazy = false) {
    SCOPED_TRACE(point + " nth=" + std::to_string(nth) + " children=" +
                 std::to_string(num_children) + (lazy ? " lazy" : " eager"));
    DomId parent = BootParent();
    const Domain* p = system_.hypervisor().FindDomain(parent);
    const std::size_t free_before = system_.hypervisor().FreePoolFrames();
    const std::size_t domains_before = system_.hypervisor().DomainIds().size();
    const bool data_writable_before = p->p2m[310].writable;
    const ParentSnapshot before = Snapshot(parent);

    ASSERT_TRUE(system_.fault_injector()
                    .Arm(point, FaultSpec::NthHit(nth, StatusCode::kAborted, "boom"))
                    .ok());
    auto r = system_.clone_engine().Clone(
        {parent, parent, StartInfoMfn(parent), num_children, lazy});
    system_.Settle();

    // The injected code surfaces verbatim.
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kAborted) << r.status().ToString();

    // Exact counters: one injection, one rollback, zero clones.
    EXPECT_EQ(Injected(), 1u);
    EXPECT_EQ(RolledBack(), 1u);
    EXPECT_EQ(ClonesTotal(), 0u);

    // No trace: frames returned, no extra domain, parent untouched and
    // running.
    EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
    EXPECT_EQ(system_.hypervisor().DomainIds().size(), domains_before);
    EXPECT_EQ(p->state, DomainState::kRunning);
    EXPECT_FALSE(p->blocked_in_clone);
    EXPECT_TRUE(p->children.empty());
    EXPECT_EQ(p->clones_created, 0u);
    EXPECT_EQ(p->p2m[310].writable, data_writable_before)
        << "parent pte not restored by rollback";
    const ParentSnapshot after = Snapshot(parent);
    EXPECT_EQ(after.pages, before.pages) << "parent p2m or frame state changed";
    EXPECT_EQ(after.shared_frames, before.shared_frames);
    EXPECT_EQ(after.saved_by_sharing, before.saved_by_sharing);
    EXPECT_EQ(after.free_frames, before.free_frames);
    EXPECT_EQ(CheckHypervisorInvariants(system_.hypervisor()), "");

    // The engine stays usable: disarm and clone for real.
    system_.fault_injector().DisarmAll();
    auto ok = system_.clone_engine().Clone(
        {parent, parent, StartInfoMfn(parent), num_children, lazy});
    system_.Settle();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ClonesTotal(), num_children);
    EXPECT_EQ(RolledBack(), 1u);  // unchanged by the successful clone
  }

  // Arms `point` to fail the second stage, checks the abort contract.
  void ExpectStage2Abort(const std::string& point, bool with_devices) {
    SCOPED_TRACE(point);
    DomId parent = BootParent(with_devices);
    const std::size_t free_before = system_.hypervisor().FreePoolFrames();
    const std::size_t domains_before = system_.hypervisor().DomainIds().size();

    ASSERT_TRUE(system_.fault_injector()
                    .Arm(point, FaultSpec::NthHit(1, StatusCode::kUnavailable, "boom"))
                    .ok());
    auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
    ASSERT_TRUE(r.ok()) << "stage 1 must succeed; the fault is in stage 2";
    DomId child = (*r)[0];
    system_.Settle();

    // The child was destroyed and its Xenstore subtree removed.
    EXPECT_EQ(system_.hypervisor().FindDomain(child), nullptr);
    EXPECT_FALSE(system_.xenstore().DomainKnown(child));
    EXPECT_FALSE(system_.xenstore().Read(XsDomainPath(child) + "/name").ok());

    // Pool back to the pre-clone value (child private pages, page tables and
    // the shared references all returned or released).
    EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
    EXPECT_EQ(system_.hypervisor().DomainIds().size(), domains_before);

    // The parent is resumable: unblocked, running, and re-clonable.
    const Domain* p = system_.hypervisor().FindDomain(parent);
    EXPECT_FALSE(p->blocked_in_clone);
    EXPECT_EQ(p->state, DomainState::kRunning);
    EXPECT_TRUE(p->children.empty());

    EXPECT_GE(Injected(), 1u);
    EXPECT_EQ(RolledBack(), 1u);
    EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_aborted").value(), 1u);
    EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_completed").value(), 0u);
    ExpectNoDom0Trace(system_, child);

    system_.fault_injector().DisarmAll();
    auto ok = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
    system_.Settle();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(system_.hypervisor().FindDomain(parent)->children.size(), 1u);
  }

  NepheleSystem system_;
};

// --- Stage-1 rollback, one test per stage. ---

TEST_F(CloneRollbackTest, CreateDomainStage) {
  ExpectStage1Rollback("clone/stage1/create_domain");
}

TEST_F(CloneRollbackTest, MemoryStage) { ExpectStage1Rollback("clone/stage1/memory"); }

TEST_F(CloneRollbackTest, ShareStage) { ExpectStage1Rollback("clone/stage1/share"); }

TEST_F(CloneRollbackTest, PageTableStage) {
  ExpectStage1Rollback("clone/stage1/page_tables");
}

TEST_F(CloneRollbackTest, GrantStage) { ExpectStage1Rollback("clone/stage1/grants"); }

TEST_F(CloneRollbackTest, EvtchnStage) { ExpectStage1Rollback("clone/stage1/evtchns"); }

// --- Stage-1 rollback of a half-built child: the fault lands halfway
// through one child's page walk, after it already copied private pages and
// shared others. ---

TEST_F(CloneRollbackTest, ShareFaultHalfwayThroughFirstChild) {
  const std::uint64_t per_child = HitsPerChild("clone/stage1/share", 3, /*lazy=*/false);
  ASSERT_GT(per_child, 1u);
  ExpectStage1Rollback("clone/stage1/share", per_child / 2, 3, /*lazy=*/false);
}

TEST_F(CloneRollbackTest, ShareFaultHalfwayThroughFirstLazyChild) {
  const std::uint64_t per_child = HitsPerChild("clone/stage1/share", 3, /*lazy=*/true);
  ASSERT_GT(per_child, 1u);
  ExpectStage1Rollback("clone/stage1/share", per_child / 2, 3, /*lazy=*/true);
}

TEST_F(CloneRollbackTest, ShareFaultHalfwayThroughThirdChild) {
  const std::uint64_t per_child = HitsPerChild("clone/stage1/share", 3, /*lazy=*/false);
  ASSERT_GT(per_child, 1u);
  ExpectStage1Rollback("clone/stage1/share", 2 * per_child + per_child / 2, 3,
                       /*lazy=*/false);
}

TEST_F(CloneRollbackTest, ShareFaultHalfwayThroughThirdLazyChild) {
  const std::uint64_t per_child = HitsPerChild("clone/stage1/share", 3, /*lazy=*/true);
  ASSERT_GT(per_child, 1u);
  ExpectStage1Rollback("clone/stage1/share", 2 * per_child + per_child / 2, 3,
                       /*lazy=*/true);
}

// Child 1's first allocation is its first private page: child 0 is fully
// built, child 1 holds nothing but its domain.
TEST_F(CloneRollbackTest, FrameAllocFaultOnSecondChildsFirstPrivatePage) {
  const std::uint64_t per_child = HitsPerChild("hypervisor/frame_alloc", 3, /*lazy=*/false);
  ASSERT_GT(per_child, 0u);
  ExpectStage1Rollback("hypervisor/frame_alloc", per_child + 1, 3, /*lazy=*/false);
}

// Frame-pool exhaustion inside CloneMemory's private-page allocation.
TEST_F(CloneRollbackTest, FrameAllocDuringCloneMemory) {
  DomId parent = BootParent();
  const std::size_t free_before = system_.hypervisor().FreePoolFrames();
  // Skip the boot-time allocations: arm for the first alloc of the clone.
  ASSERT_TRUE(system_.fault_injector()
                  .Arm("hypervisor/frame_alloc", FaultSpec::NthHit(1))
                  .ok());
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  system_.Settle();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RolledBack(), 1u);
  EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
  EXPECT_FALSE(system_.hypervisor().FindDomain(parent)->blocked_in_clone);
}

// A fault on the second child of a batch unwinds the first child too: the
// batch is all-or-nothing.
TEST_F(CloneRollbackTest, BatchIsAllOrNothing) {
  DomId parent = BootParent();
  const std::size_t free_before = system_.hypervisor().FreePoolFrames();
  const std::size_t domains_before = system_.hypervisor().DomainIds().size();
  ASSERT_TRUE(system_.fault_injector()
                  .Arm("clone/stage1/create_domain",
                       FaultSpec::NthHit(2, StatusCode::kAborted, "second child"))
                  .ok());
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 2});
  system_.Settle();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_EQ(RolledBack(), 1u) << "one rollback event per failed batch";
  EXPECT_EQ(ClonesTotal(), 0u);
  EXPECT_EQ(system_.hypervisor().DomainIds().size(), domains_before);
  EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
  const Domain* p = system_.hypervisor().FindDomain(parent);
  EXPECT_TRUE(p->children.empty());
  EXPECT_EQ(p->clones_created, 0u);
  EXPECT_FALSE(p->blocked_in_clone);
  EXPECT_EQ(p->state, DomainState::kRunning);
}

// --- Stage-2 aborts. ---

TEST_F(CloneRollbackTest, XenclonedStage2Fault) {
  ExpectStage2Abort("xencloned/stage2", /*with_devices=*/false);
}

TEST_F(CloneRollbackTest, XsCloneFault) {
  ExpectStage2Abort("xenstore/xs_clone", /*with_devices=*/false);
}

TEST_F(CloneRollbackTest, ConsoleCloneFault) {
  ExpectStage2Abort("devices/console_clone", /*with_devices=*/false);
}

TEST_F(CloneRollbackTest, NetCloneFault) {
  ExpectStage2Abort("devices/net_clone", /*with_devices=*/false);
}

TEST_F(CloneRollbackTest, P9CloneFault) {
  ExpectStage2Abort("devices/p9_clone", /*with_devices=*/true);
}

TEST_F(CloneRollbackTest, VbdCloneFault) {
  ExpectStage2Abort("devices/vbd_clone", /*with_devices=*/true);
}

// A stage-2 abort of one child of a batch must not wedge the others or the
// parent: the aborted child retires its outstanding slot like a completion.
TEST_F(CloneRollbackTest, PartialBatchStage2Abort) {
  DomId parent = BootParent();
  ASSERT_TRUE(system_.fault_injector()
                  .Arm("xencloned/stage2", FaultSpec::NthHit(2))
                  .ok());
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 2});
  ASSERT_TRUE(r.ok());
  system_.Settle();

  const Domain* p = system_.hypervisor().FindDomain(parent);
  EXPECT_EQ(p->state, DomainState::kRunning) << "parent must resume despite one abort";
  EXPECT_FALSE(p->blocked_in_clone);
  ASSERT_EQ(p->children.size(), 1u) << "one child survives, one was aborted";
  // Exactly one of the two stage-1 children made it through stage 2; the
  // survivor is the one the parent still lists.
  const bool first_alive = system_.hypervisor().FindDomain((*r)[0]) != nullptr;
  const bool second_alive = system_.hypervisor().FindDomain((*r)[1]) != nullptr;
  EXPECT_NE(first_alive, second_alive);
  EXPECT_EQ(p->children[0], first_alive ? (*r)[0] : (*r)[1]);
  EXPECT_EQ(RolledBack(), 1u);
  EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_completed").value(), 1u);
  EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_aborted").value(), 1u);
}

// --- CloneReset under fault. ---

TEST_F(CloneRollbackTest, CloneResetFaultLeavesDirtyListConsistent) {
  DomId parent = BootParent();
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(r.ok());
  system_.Settle();
  DomId child = (*r)[0];

  // Dirty two pages on the child.
  std::uint8_t b = 0x5a;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(child, 310, 0, &b, 1).ok());
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(child, 311, 0, &b, 1).ok());
  const Domain* c = system_.hypervisor().FindDomain(child);
  ASSERT_EQ(c->dirty_since_clone.size(), 2u);

  ASSERT_TRUE(system_.fault_injector()
                  .Arm("clone/reset", FaultSpec::NthHit(1, StatusCode::kUnavailable, "boom"))
                  .ok());
  auto reset = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_FALSE(reset.ok());
  EXPECT_EQ(reset.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(c->dirty_since_clone.size(), 2u) << "failed reset must not lose dirty entries";

  // Disarmed retry restores both pages.
  system_.fault_injector().DisarmAll();
  auto retry = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 2u);
  EXPECT_TRUE(c->dirty_since_clone.empty());
}

// Regression: a CloneReset issued after a fault-aborted clone of the same
// parent. The abort path (CloneAborted + hv destroy) must leave frame
// refcounts, the engine's pending-slot table and the rollback/abort counters
// in a state where the surviving child resets cleanly and the parent can
// clone again.
TEST_F(CloneRollbackTest, CloneResetAfterAbortedCloneStaysConsistent) {
  DomId parent = BootParent();
  ASSERT_TRUE(system_.fault_injector()
                  .Arm("xencloned/stage2", FaultSpec::NthHit(1))
                  .ok());
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 2});
  ASSERT_TRUE(r.ok());
  system_.Settle();
  system_.fault_injector().DisarmAll();

  // First child aborted mid-stage-2, second survived.
  ASSERT_EQ(system_.hypervisor().FindDomain((*r)[0]), nullptr);
  const DomId child = (*r)[1];
  ASSERT_NE(system_.hypervisor().FindDomain(child), nullptr);
  EXPECT_EQ(RolledBack(), 1u);
  EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_aborted").value(), 1u);
  ExpectFrameConsistency(system_);

  // Dirty the survivor, then reset it. The abort must not have corrupted the
  // shared-frame refcounts the reset re-shares against.
  std::uint8_t b = 0x77;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(child, 310, 0, &b, 1).ok());
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(child, 311, 0, &b, 1).ok());
  auto reset = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_TRUE(reset.ok()) << reset.status().ToString();
  EXPECT_EQ(*reset, 2u);
  EXPECT_TRUE(system_.hypervisor().FindDomain(child)->dirty_since_clone.empty());
  EXPECT_EQ(system_.metrics().GetCounter("clone/reset/count").value(), 1u);
  ExpectFrameConsistency(system_);

  // The aborted child's pending slot was retired: the parent is unblocked
  // and a fresh batch goes through end to end.
  const Domain* p = system_.hypervisor().FindDomain(parent);
  EXPECT_FALSE(p->blocked_in_clone);
  EXPECT_EQ(p->state, DomainState::kRunning);
  auto again = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  system_.Settle();
  EXPECT_NE(system_.hypervisor().FindDomain((*again)[0]), nullptr);
  EXPECT_EQ(system_.metrics().GetCounter("xencloned/clones_completed").value(), 2u);
  EXPECT_EQ(RolledBack(), 1u) << "the clean batch must not add rollbacks";
  ExpectFrameConsistency(system_);
}

// --- Toolstack build unwinding: xl create, restore and migrate-in share one
// build, and a failed build runs the one Dom0 teardown. ---

// The guest every failed-build test boots: every device type, so the
// teardown has something of each kind to remove.
DomainConfig DoomedConfig() {
  DomainConfig cfg;
  cfg.name = "doomed";
  cfg.memory_mb = 4;
  cfg.max_clones = 4;
  cfg.with_p9fs = true;
  cfg.with_vbd = true;
  return cfg;
}

// Fails the nth frame allocation for several n, walking the fault through
// the build `boot` runs (domain creation, physmap population, special pages,
// page tables), then fails the vif ring grant, after Xenstore entries and
// the console already exist. Every failed build must unwind completely:
// free pool, domain count, Xenstore and the rest of Dom0 as they were.
// Builds that survive are torn down and still must return to the starting
// state.
void ExpectFailedBuildsLeaveNoTrace(NepheleSystem& sys,
                                    const std::function<Result<DomId>()>& boot) {
  const std::pair<std::string, std::uint64_t> faults[] = {
      {"hypervisor/frame_alloc", 1},   {"hypervisor/frame_alloc", 10},
      {"hypervisor/frame_alloc", 100}, {"hypervisor/frame_alloc", 300},
      {"hypervisor/frame_alloc", 600}, {"hypervisor/grant_access", 1}};
  std::map<std::string, unsigned> failed;  // by fault point
  for (const auto& [point, nth] : faults) {
    SCOPED_TRACE(point + " nth=" + std::to_string(nth));
    const std::size_t free_before = sys.hypervisor().FreePoolFrames();
    const std::size_t domains_before = sys.hypervisor().DomainIds().size();
    const std::size_t xs_entries_before = sys.xenstore().NumEntries();
    ASSERT_TRUE(sys.fault_injector().Arm(point, FaultSpec::NthHit(nth)).ok());
    auto dom = boot();
    sys.Settle();
    sys.fault_injector().DisarmAll();
    if (dom.ok()) {
      ASSERT_TRUE(sys.toolstack().DestroyDomain(*dom).ok());
      sys.Settle();
    } else {
      ++failed[point];
    }
    EXPECT_EQ(sys.hypervisor().FreePoolFrames(), free_before);
    EXPECT_EQ(sys.hypervisor().DomainIds().size(), domains_before);
    EXPECT_EQ(sys.xenstore().NumEntries(), xs_entries_before);
    // Domain ids are issued in order from 1: every one that is not alive,
    // the failed build's included, left nothing in Dom0.
    const std::uint64_t issued = sys.metrics().GetCounter("hypervisor/domains/created").value();
    for (DomId id = 1; id <= issued; ++id) {
      if (sys.hypervisor().FindDomain(id) == nullptr) {
        ExpectNoDom0Trace(sys, id);
      }
    }
  }
  EXPECT_GE(failed["hypervisor/frame_alloc"], 1u) << "no nth value failed the memory setup";
  EXPECT_EQ(failed["hypervisor/grant_access"], 1u) << "the vif ring grant did not fail the build";

  // And the build still works afterwards.
  auto ok = boot();
  sys.Settle();
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(CloneRollbackTest, FailedBootLeavesNoTrace) {
  ExpectFailedBuildsLeaveNoTrace(system_,
                                 [&] { return system_.toolstack().CreateDomain(DoomedConfig()); });
}

TEST_F(CloneRollbackTest, FailedRestoreLeavesNoTrace) {
  auto source = system_.toolstack().CreateDomain(DoomedConfig());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto image = system_.toolstack().SaveDomain(*source);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  system_.Settle();
  ExpectFailedBuildsLeaveNoTrace(system_,
                                 [&] { return system_.toolstack().RestoreDomain(*image); });
}

TEST_F(CloneRollbackTest, FailedMigrateInLeavesNoTrace) {
  auto source = system_.toolstack().CreateDomain(DoomedConfig());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto stream = system_.toolstack().SnapshotDomain(*source);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  system_.Settle();
  ExpectFailedBuildsLeaveNoTrace(system_, [&] { return system_.toolstack().MigrateIn(*stream); });
}

}  // namespace
}  // namespace nephele
