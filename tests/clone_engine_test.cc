#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

// Exercises the CLONEOP hypercall + xencloned second stage through the fully
// wired system (the clone path needs both).
class CloneEngineTest : public ::testing::Test {
 protected:
  CloneEngineTest() : system_(SmallSystem()) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 256 * 1024;  // 1 GiB pool
    return cfg;
  }

  DomId BootCloneable(std::uint32_t max_clones = 32, bool with_vif = true) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.memory_mb = 4;
    cfg.max_clones = max_clones;
    cfg.with_vif = with_vif;
    auto dom = system_.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok());
    return *dom;
  }

  Mfn StartInfoMfn(DomId dom) {
    const Domain* d = system_.hypervisor().FindDomain(dom);
    return d->p2m[d->start_info_gfn].mfn;
  }

  // Clone and run the second stage to completion.
  std::vector<DomId> CloneAndSettle(DomId parent, unsigned n = 1) {
    auto children = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), n});
    EXPECT_TRUE(children.ok()) << children.status().ToString();
    system_.Settle();
    return children.ok() ? *children : std::vector<DomId>{};
  }

  NepheleSystem system_;
};

TEST_F(CloneEngineTest, RequiresGlobalEnable) {
  SystemConfig cfg;
  cfg.start_xencloned = false;  // nothing enabled cloning globally
  NepheleSystem sys(cfg);
  DomainConfig dcfg;
  dcfg.name = "p";
  dcfg.max_clones = 2;
  auto dom = sys.toolstack().CreateDomain(dcfg);
  const Domain* d = sys.hypervisor().FindDomain(*dom);
  auto r = sys.clone_engine().Clone({*dom, *dom, d->p2m[d->start_info_gfn].mfn, 1});
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CloneEngineTest, RequiresPerDomainEnable) {
  DomId dom = BootCloneable(/*max_clones=*/0);
  auto r = system_.clone_engine().Clone({dom, dom, StartInfoMfn(dom), 1});
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(CloneEngineTest, EnforcesMaxClones) {
  DomId dom = BootCloneable(/*max_clones=*/2);
  EXPECT_EQ(CloneAndSettle(dom).size(), 1u);
  EXPECT_EQ(CloneAndSettle(dom).size(), 1u);
  auto r = system_.clone_engine().Clone({dom, dom, StartInfoMfn(dom), 1});
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CloneEngineTest, OnlySelfOrDom0MayClone) {
  DomId a = BootCloneable();
  DomId b = BootCloneable();
  auto r = system_.clone_engine().Clone({b, a, StartInfoMfn(a), 1});
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  // Dom0-triggered cloning (the fuzzing path) is allowed.
  auto ok = system_.clone_engine().Clone({kDom0, a, StartInfoMfn(a), 1});
  EXPECT_TRUE(ok.ok());
  system_.Settle();
}

TEST_F(CloneEngineTest, StartInfoMfnValidated) {
  DomId dom = BootCloneable();
  auto r = system_.clone_engine().Clone({dom, dom, StartInfoMfn(dom) + 1, 1});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CloneEngineTest, ChildInheritsMemoryLayoutAndFamily) {
  DomId parent = BootCloneable();
  auto children = CloneAndSettle(parent);
  ASSERT_EQ(children.size(), 1u);
  const Domain* p = system_.hypervisor().FindDomain(parent);
  const Domain* c = system_.hypervisor().FindDomain(children[0]);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tot_pages(), p->tot_pages());
  EXPECT_EQ(c->parent, parent);
  EXPECT_EQ(c->family_root, parent);
  EXPECT_EQ(p->children, children);
  EXPECT_TRUE(system_.hypervisor().IsDescendantOf(children[0], parent));
  EXPECT_EQ(c->start_info_gfn, p->start_info_gfn);
}

TEST_F(CloneEngineTest, RaxIsZeroForParentOneForChild) {
  DomId parent = BootCloneable();
  auto children = CloneAndSettle(parent);
  EXPECT_EQ(system_.hypervisor().FindDomain(parent)->vcpus[0].rax, 0u);
  EXPECT_EQ(system_.hypervisor().FindDomain(children[0])->vcpus[0].rax, 1u);
}

TEST_F(CloneEngineTest, VcpuAffinityReplicated) {
  DomId parent = BootCloneable();
  system_.hypervisor().FindDomain(parent)->vcpus[0].affinity = 3;
  auto children = CloneAndSettle(parent);
  EXPECT_EQ(system_.hypervisor().FindDomain(children[0])->vcpus[0].affinity, 3);
}

TEST_F(CloneEngineTest, DataPagesAreSharedCow) {
  DomId parent = BootCloneable();
  const Domain* p = system_.hypervisor().FindDomain(parent);
  GuestMemoryLayout layout =
      ComputeGuestLayout(*system_.toolstack().FindConfig(parent), 1024);
  Gfn heap_gfn = static_cast<Gfn>(layout.heap_first_gfn);
  Mfn parent_mfn_before = p->p2m[heap_gfn].mfn;

  auto children = CloneAndSettle(parent);
  const Domain* c = system_.hypervisor().FindDomain(children[0]);
  // Same machine frame, owned by dom_cow, read-only on both sides.
  EXPECT_EQ(c->p2m[heap_gfn].mfn, parent_mfn_before);
  EXPECT_EQ(system_.hypervisor().frames().OwnerOf(parent_mfn_before), kDomCow);
  EXPECT_FALSE(system_.hypervisor().FindDomain(parent)->p2m[heap_gfn].writable);
  EXPECT_FALSE(c->p2m[heap_gfn].writable);
}

TEST_F(CloneEngineTest, PrivatePagesAreDuplicated) {
  DomId parent = BootCloneable();
  const Domain* p = system_.hypervisor().FindDomain(parent);
  auto children = CloneAndSettle(parent);
  const Domain* c = system_.hypervisor().FindDomain(children[0]);
  // start_info, console ring, xenstore ring, vif rings and buffers.
  EXPECT_NE(c->p2m[c->start_info_gfn].mfn, p->p2m[p->start_info_gfn].mfn);
  EXPECT_NE(c->p2m[c->console_ring_gfn].mfn, p->p2m[p->console_ring_gfn].mfn);
  GuestDevices* gd = system_.toolstack().FindDevices(parent);
  Gfn rx = gd->net->rx_buffer_gfn();
  EXPECT_NE(c->p2m[rx].mfn, p->p2m[rx].mfn);
  EXPECT_TRUE(c->p2m[c->start_info_gfn].writable);
}

TEST_F(CloneEngineTest, CowIsolationAfterClone) {
  DomId parent = BootCloneable();
  GuestMemoryLayout layout =
      ComputeGuestLayout(*system_.toolstack().FindConfig(parent), 1024);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  const char before[] = "original";
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(parent, gfn, 0, before, sizeof(before)).ok());

  auto children = CloneAndSettle(parent);
  DomId child = children[0];

  // Contents equal right after the clone.
  char buf[16] = {};
  ASSERT_TRUE(system_.hypervisor().ReadGuestPage(child, gfn, 0, buf, sizeof(before)).ok());
  EXPECT_STREQ(buf, "original");

  // Child writes; parent must not see it (DESIGN.md invariant 2).
  const char child_data[] = "childmod";
  ASSERT_TRUE(
      system_.hypervisor().WriteGuestPage(child, gfn, 0, child_data, sizeof(child_data)).ok());
  ASSERT_TRUE(system_.hypervisor().ReadGuestPage(parent, gfn, 0, buf, sizeof(before)).ok());
  EXPECT_STREQ(buf, "original");
  ASSERT_TRUE(system_.hypervisor().ReadGuestPage(child, gfn, 0, buf, sizeof(child_data)).ok());
  EXPECT_STREQ(buf, "childmod");
  EXPECT_EQ(system_.hypervisor().FindDomain(child)->cow_faults, 1u);
}

TEST_F(CloneEngineTest, LastSharerReclaimsOwnershipWithoutCopy) {
  DomId parent = BootCloneable();
  GuestMemoryLayout layout =
      ComputeGuestLayout(*system_.toolstack().FindConfig(parent), 1024);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  auto children = CloneAndSettle(parent);
  Mfn shared_mfn = system_.hypervisor().FindDomain(parent)->p2m[gfn].mfn;

  // Child COWs its copy; the shared frame drops to refcount 1.
  char b = 1;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(children[0], gfn, 0, &b, 1).ok());
  // Parent's next write transfers ownership in place — no new frame.
  std::size_t free_before = system_.hypervisor().FreePoolFrames();
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(parent, gfn, 0, &b, 1).ok());
  EXPECT_EQ(system_.hypervisor().FreePoolFrames(), free_before);
  EXPECT_EQ(system_.hypervisor().frames().OwnerOf(shared_mfn), parent);
}

TEST_F(CloneEngineTest, ParentPausedUntilSecondStageCompletes) {
  DomId parent = BootCloneable();
  auto children = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(children.ok());
  // Before the event loop runs xencloned, the parent must be blocked.
  const Domain* p = system_.hypervisor().FindDomain(parent);
  EXPECT_TRUE(p->blocked_in_clone);
  EXPECT_TRUE(p->IsPaused());
  system_.Settle();
  EXPECT_FALSE(p->blocked_in_clone);
  EXPECT_EQ(p->state, DomainState::kRunning);
  EXPECT_EQ(system_.hypervisor().FindDomain(children->front())->state, DomainState::kRunning);
}

namespace {

// Records every CloneObserver callback it sees, in delivery order.
class RecordingObserver : public CloneObserver {
 public:
  void OnCloneStart(DomId parent, unsigned num_clones) override {
    starts.push_back({parent, num_clones});
  }
  void OnCloneComplete(DomId parent, DomId child) override {
    completions.push_back({parent, child});
  }
  void OnResume(DomId dom, bool is_child) override { resumed.push_back({dom, is_child}); }
  void OnCowFault(DomId dom, Gfn /*gfn*/, bool /*copied*/) override { cow_faults.push_back(dom); }

  std::vector<std::pair<DomId, unsigned>> starts;
  std::vector<std::pair<DomId, DomId>> completions;
  std::vector<std::pair<DomId, bool>> resumed;
  std::vector<DomId> cow_faults;
};

}  // namespace

TEST_F(CloneEngineTest, ObserverSeesResumeForBothSides) {
  DomId parent = BootCloneable();
  RecordingObserver obs;
  system_.clone_engine().AddObserver(&obs);
  auto children = CloneAndSettle(parent);
  system_.clone_engine().RemoveObserver(&obs);
  ASSERT_EQ(obs.resumed.size(), 2u);
  EXPECT_EQ(obs.resumed[0], std::make_pair(children[0], true));
  EXPECT_EQ(obs.resumed[1], std::make_pair(parent, false));
}

TEST_F(CloneEngineTest, ObserverSeesStartCompleteAndCowFault) {
  DomId parent = BootCloneable();
  RecordingObserver obs;
  system_.clone_engine().AddObserver(&obs);
  auto children = CloneAndSettle(parent);
  ASSERT_EQ(obs.starts.size(), 1u);
  EXPECT_EQ(obs.starts[0], std::make_pair(parent, 1u));
  ASSERT_EQ(obs.completions.size(), 1u);
  EXPECT_EQ(obs.completions[0], std::make_pair(parent, children[0]));
  // A write to a shared page surfaces as OnCowFault.
  const Domain* p = system_.hypervisor().FindDomain(parent);
  Gfn gfn = 0;
  for (; gfn < p->p2m.size(); ++gfn) {
    if (system_.hypervisor().frames().IsShared(p->p2m[gfn].mfn) &&
        p->p2m[gfn].role != PageRole::kImageText) {
      break;
    }
  }
  ASSERT_LT(gfn, p->p2m.size());
  std::uint8_t b = 1;
  ASSERT_TRUE(system_.hypervisor().WriteGuestPage(parent, gfn, 0, &b, 1).ok());
  system_.clone_engine().RemoveObserver(&obs);
  ASSERT_EQ(obs.cow_faults.size(), 1u);
  EXPECT_EQ(obs.cow_faults[0], parent);
}

TEST_F(CloneEngineTest, RemovedObserverStopsReceivingEvents) {
  DomId parent = BootCloneable(/*max_clones=*/8);
  RecordingObserver obs;
  system_.clone_engine().AddObserver(&obs);
  CloneAndSettle(parent);
  ASSERT_EQ(obs.starts.size(), 1u);
  system_.clone_engine().RemoveObserver(&obs);
  CloneAndSettle(parent);
  EXPECT_EQ(obs.starts.size(), 1u);
  EXPECT_EQ(obs.resumed.size(), 2u);
}

TEST_F(CloneEngineTest, MultiCloneBatch) {
  DomId parent = BootCloneable(/*max_clones=*/8);
  auto children = CloneAndSettle(parent, 3);
  EXPECT_EQ(children.size(), 3u);
  for (DomId c : children) {
    EXPECT_NE(system_.hypervisor().FindDomain(c), nullptr);
    EXPECT_TRUE(system_.hypervisor().SameFamily(parent, c));
  }
  // Pairwise distinct.
  EXPECT_NE(children[0], children[1]);
  EXPECT_NE(children[1], children[2]);
}

TEST_F(CloneEngineTest, CloneOfCloneExtendsFamily) {
  DomId root = BootCloneable();
  auto first = CloneAndSettle(root);
  DomId child = first[0];
  auto second = system_.clone_engine().Clone({child, child, StartInfoMfn(child), 1});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  system_.Settle();
  DomId grandchild = second->front();
  EXPECT_TRUE(system_.hypervisor().IsDescendantOf(grandchild, root));
  EXPECT_EQ(system_.hypervisor().FindDomain(grandchild)->family_root, root);
}

TEST_F(CloneEngineTest, CloneSavesMemory) {
  DomId parent = BootCloneable(/*max_clones=*/16);
  std::size_t free_before = system_.hypervisor().FreePoolFrames();
  auto children = CloneAndSettle(parent);
  ASSERT_EQ(children.size(), 1u);
  std::size_t clone_cost_pages = free_before - system_.hypervisor().FreePoolFrames();
  // Fig. 5 anchor: ~1.6 MiB per clone vs the 4 MiB boot (RX ring ~1 MiB).
  double clone_mb = static_cast<double>(clone_cost_pages) * kPageSize / (1 << 20);
  EXPECT_GT(clone_mb, 1.0);
  EXPECT_LT(clone_mb, 2.0);
}

TEST_F(CloneEngineTest, FirstStageTakesAboutOneMillisecond) {
  DomId parent = BootCloneable();
  SimTime before = system_.Now();
  auto children = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent), 1});
  ASSERT_TRUE(children.ok());
  double stage1_ms = (system_.Now() - before).ToMillis();
  EXPECT_GT(stage1_ms, 0.3);
  EXPECT_LT(stage1_ms, 2.5);  // Sec. 6.1: "takes only 1 ms"
  system_.Settle();
}

TEST_F(CloneEngineTest, SecondCloneIsCheaperSharing) {
  DomId parent = BootCloneable();
  (void)CloneAndSettle(parent);
  CloneStats after_first = system_.clone_engine().stats();
  (void)CloneAndSettle(parent);
  CloneStats after_second = system_.clone_engine().stats();
  // First clone transferred pages to dom_cow; the second only bumps
  // refcounts (Sec. 6.2 first-vs-second clone gap).
  EXPECT_GT(after_first.pages_shared_first, 0u);
  EXPECT_EQ(after_second.pages_shared_first, after_first.pages_shared_first);
  EXPECT_GT(after_second.pages_shared_again, after_first.pages_shared_again);
}

TEST_F(CloneEngineTest, CloneCowUnsharesExplicitly) {
  DomId parent = BootCloneable();
  auto children = CloneAndSettle(parent);
  DomId child = children[0];
  const Domain* c = system_.hypervisor().FindDomain(child);
  Mfn shared_text = c->p2m[0].mfn;  // gfn 0 is image text
  ASSERT_TRUE(system_.clone_engine().CloneCow(kDom0, child, 0, 4).ok());
  EXPECT_NE(system_.hypervisor().FindDomain(child)->p2m[0].mfn, shared_text);
  EXPECT_TRUE(system_.hypervisor().FindDomain(child)->p2m[0].writable);
  EXPECT_EQ(system_.clone_engine().stats().explicit_cow_pages, 4u);
}

TEST_F(CloneEngineTest, CloneCowPermissionChecked) {
  DomId a = BootCloneable();
  DomId b = BootCloneable();
  EXPECT_EQ(system_.clone_engine().CloneCow(a, b, 0, 1).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(CloneEngineTest, CloneResetRestoresDirtyPages) {
  DomId parent = BootCloneable();
  GuestMemoryLayout layout =
      ComputeGuestLayout(*system_.toolstack().FindConfig(parent), 1024);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn);
  const char original[] = "pristine";
  ASSERT_TRUE(
      system_.hypervisor().WriteGuestPage(parent, gfn, 0, original, sizeof(original)).ok());
  auto children = CloneAndSettle(parent);
  DomId child = children[0];

  const char scribble[] = "scribble";
  ASSERT_TRUE(
      system_.hypervisor().WriteGuestPage(child, gfn, 0, scribble, sizeof(scribble)).ok());
  ASSERT_TRUE(
      system_.hypervisor().WriteGuestPage(child, gfn + 1, 0, scribble, sizeof(scribble)).ok());

  auto restored = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 2u);
  char buf[16] = {};
  ASSERT_TRUE(system_.hypervisor().ReadGuestPage(child, gfn, 0, buf, sizeof(original)).ok());
  EXPECT_STREQ(buf, "pristine");
  // The page is shared again; a further reset restores nothing.
  auto again = system_.clone_engine().CloneReset(kDom0, child);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST_F(CloneEngineTest, CloneResetOnlyForClones) {
  DomId dom = BootCloneable();
  EXPECT_EQ(system_.clone_engine().CloneReset(kDom0, dom).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CloneEngineTest, GrantTableInheritedByChild) {
  DomId parent = BootCloneable();
  std::size_t parent_grants =
      system_.hypervisor().FindDomain(parent)->grants.active_entries();
  ASSERT_GT(parent_grants, 0u);  // vif rings/buffers are granted
  auto children = CloneAndSettle(parent);
  EXPECT_EQ(system_.hypervisor().FindDomain(children[0])->grants.active_entries(),
            parent_grants);
}

TEST_F(CloneEngineTest, NotificationRingBackpressure) {
  DomId parent = BootCloneable(/*max_clones=*/4096);
  auto r = system_.clone_engine().Clone({parent, parent, StartInfoMfn(parent),
                                        static_cast<unsigned>(
                                            system_.clone_engine().notification_ring().capacity()) +
                                            1});
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

// Property (DESIGN.md invariant 2/3): transparency across guest memory
// sizes — clone contents equal the parent's at clone time, rax values are
// correct, and writes after the clone never leak across.
class CloneTransparency : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CloneTransparency, MemorySizeSweep) {
  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 512 * 1024;
  NepheleSystem system(scfg);
  DomainConfig cfg;
  cfg.name = "p";
  cfg.memory_mb = GetParam();
  cfg.max_clones = 1;
  auto parent = system.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok());
  GuestMemoryLayout layout = ComputeGuestLayout(cfg, 1024);
  Gfn gfn = static_cast<Gfn>(layout.heap_first_gfn + layout.heap_pages / 2);
  std::uint32_t tag = static_cast<std::uint32_t>(0xC0FFEE00 + GetParam());
  ASSERT_TRUE(system.hypervisor().WriteGuestPage(*parent, gfn, 8, &tag, sizeof(tag)).ok());

  const Domain* p = system.hypervisor().FindDomain(*parent);
  auto children = system.clone_engine().Clone({*parent, *parent,
                                              p->p2m[p->start_info_gfn].mfn, 1});
  ASSERT_TRUE(children.ok());
  system.Settle();
  DomId child = children->front();

  std::uint32_t out = 0;
  ASSERT_TRUE(system.hypervisor().ReadGuestPage(child, gfn, 8, &out, sizeof(out)).ok());
  EXPECT_EQ(out, tag);
  EXPECT_EQ(system.hypervisor().FindDomain(child)->vcpus[0].rax, 1u);
  EXPECT_EQ(system.hypervisor().FindDomain(*parent)->vcpus[0].rax, 0u);

  std::uint32_t other = ~tag;
  ASSERT_TRUE(system.hypervisor().WriteGuestPage(child, gfn, 8, &other, sizeof(other)).ok());
  ASSERT_TRUE(system.hypervisor().ReadGuestPage(*parent, gfn, 8, &out, sizeof(out)).ok());
  EXPECT_EQ(out, tag);
}

INSTANTIATE_TEST_SUITE_P(MemorySizes, CloneTransparency,
                         ::testing::Values(4, 8, 16, 64, 128));

// ---------------------------------------------------------------------------
// Whole batches: virtual-time charge and rerun reproducibility.
// ---------------------------------------------------------------------------

constexpr std::uint8_t kStamp[16] = {0xde, 0xad, 0xbe, 0xef, 9, 8, 7, 6,
                                     5,    4,    3,    2,    1, 0, 1, 2};

// FNV-1a over the full observable machine state: every domain's p2m (mfn,
// role, writability) plus the bytes of every mapped frame, in domain/gfn
// order, and the free pool size.
std::uint64_t MemoryDigest(NepheleSystem& sys) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto add = [&hash](const void* bytes, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(bytes);
    for (std::size_t i = 0; i < len; ++i) {
      hash = (hash ^ p[i]) * 0x100000001b3ull;
    }
  };
  auto add_value = [&add](auto v) { add(&v, sizeof(v)); };
  std::uint8_t page[kPageSize];
  for (DomId id : sys.hypervisor().DomainIds()) {
    const Domain* dom = sys.hypervisor().FindDomain(id);
    add_value(id);
    add_value(dom->parent);
    add_value(dom->family_root);
    add_value(dom->vcpus.empty() ? std::uint64_t{0} : dom->vcpus[0].rax);
    for (Gfn gfn = 0; gfn < dom->p2m.size(); ++gfn) {
      const P2mEntry& e = dom->p2m[gfn];
      add_value(gfn);
      add_value(e.mfn);
      add_value(static_cast<int>(e.role));
      add_value(e.writable);
      if (e.mfn != kInvalidMfn) {
        sys.hypervisor().frames().ReadBytes(e.mfn, 0, page, kPageSize);
        add(page, kPageSize);
      }
    }
  }
  add_value(sys.hypervisor().FreePoolFrames());
  return hash;
}

struct BatchRun {
  std::vector<DomId> children;
  std::uint64_t memory = 0;
  std::string metrics;
  std::string trace;
  std::int64_t now_ns = 0;
};

// One fixed workload: boot a parent, stamp a few data pages, clone a batch,
// settle the second stage, then COW-write inside one child.
BatchRun RunBatchWorkload(unsigned batch) {
  SystemConfig cfg;
  cfg.hypervisor.pool_frames = 256 * 1024;
  NepheleSystem sys(cfg);

  DomainConfig dcfg;
  dcfg.name = "parent";
  dcfg.memory_mb = 4;
  dcfg.max_clones = 128;
  dcfg.with_vif = true;
  auto parent = sys.toolstack().CreateDomain(dcfg);
  EXPECT_TRUE(parent.ok());
  sys.Settle();

  const Gfn first_data = static_cast<Gfn>(dcfg.image_text_pages);
  for (Gfn i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        sys.hypervisor().WriteGuestPage(*parent, first_data + i, 0, kStamp, sizeof(kStamp)).ok());
  }

  const Domain* p = sys.hypervisor().FindDomain(*parent);
  auto children =
      sys.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, batch});
  EXPECT_TRUE(children.ok()) << children.status().ToString();
  sys.Settle();

  BatchRun r;
  if (children.ok()) {
    r.children = *children;
    EXPECT_TRUE(sys.hypervisor()
                    .WriteGuestPage(r.children.front(), first_data, 0, kStamp, sizeof(kStamp))
                    .ok());
  }
  ExpectFrameConsistency(sys);
  r.memory = MemoryDigest(sys);
  r.metrics = sys.metrics().ExportJson();
  r.trace = sys.trace().ExportJson();
  r.now_ns = sys.Now().ns();
  return r;
}

// Repeating the identical workload reproduces it bit for bit — same child
// ids, guest memory, p2m, metrics export, trace spans and virtual time — at
// batch sizes 1, 8 and 64.
TEST(CloneBatchTest, RerunsAreByteIdentical) {
  for (unsigned batch : {1u, 8u, 64u}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const BatchRun a = RunBatchWorkload(batch);
    const BatchRun b = RunBatchWorkload(batch);
    ASSERT_EQ(a.children.size(), batch);
    EXPECT_EQ(a.children, b.children);
    EXPECT_EQ(a.memory, b.memory) << "guest memory diverged";
    EXPECT_EQ(a.metrics, b.metrics) << "metrics export diverged";
    EXPECT_EQ(a.trace, b.trace) << "trace spans diverged";
    EXPECT_EQ(a.now_ns, b.now_ns) << "virtual time diverged";
  }
}

// Virtual time charges the batch's critical path: a batch of four costs its
// slowest child (the first, which pays the first-share rate), exactly what a
// single clone of the same parent costs — not four times it.
TEST(CloneBatchTest, VirtualTimeIsCriticalPathNotSum) {
  auto stage1_ns = [](unsigned batch) {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 256 * 1024;
    NepheleSystem sys(cfg);
    DomainConfig dcfg;
    dcfg.name = "parent";
    dcfg.memory_mb = 4;
    dcfg.max_clones = 16;
    auto parent = sys.toolstack().CreateDomain(dcfg);
    EXPECT_TRUE(parent.ok());
    sys.Settle();
    const Domain* p = sys.hypervisor().FindDomain(*parent);
    SimTime before = sys.Now();
    auto children =
        sys.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, batch});
    EXPECT_TRUE(children.ok());
    std::int64_t ns = (sys.Now() - before).ns();
    sys.Settle();
    return ns;
  };
  const std::int64_t one = stage1_ns(1);
  const std::int64_t four = stage1_ns(4);
  EXPECT_GT(one, 0);
  EXPECT_EQ(four, one);
}

}  // namespace
}  // namespace nephele
