#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/fault/fault.h"
#include "src/hypervisor/hypervisor.h"
#include "src/hypervisor/invariants.h"
#include "src/obs/metrics.h"

namespace nephele {
namespace {

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest() : hv_(loop_, DefaultCostModel(), SmallConfig(), metrics_, faults_) {}

  static HypervisorConfig SmallConfig() {
    HypervisorConfig cfg;
    cfg.pool_frames = 4096;
    return cfg;
  }

  EventLoop loop_;
  MetricsRegistry metrics_;
  FaultInjector faults_{metrics_};
  Hypervisor hv_;
};

TEST_F(HypervisorTest, Dom0ExistsAtBoot) {
  const Domain* dom0 = hv_.FindDomain(kDom0);
  ASSERT_NE(dom0, nullptr);
  EXPECT_EQ(dom0->name, "Domain-0");
  EXPECT_EQ(dom0->state, DomainState::kRunning);
}

TEST_F(HypervisorTest, CreateDomainAssignsIds) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(hv_.FindDomain(*b)->vcpus.size(), 2u);
  EXPECT_EQ(hv_.FindDomain(*a)->family_root, *a);
}

TEST_F(HypervisorTest, CreateDomainRejectsZeroVcpus) {
  EXPECT_EQ(hv_.CreateDomain("x", 0).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(HypervisorTest, PopulatePhysmapAllocatesFrames) {
  auto dom = hv_.CreateDomain("a", 1);
  std::size_t free_before = hv_.FreePoolFrames();
  auto gfn = hv_.PopulatePhysmap(*dom, 10, PageRole::kData);
  ASSERT_TRUE(gfn.ok());
  EXPECT_EQ(*gfn, 0u);
  EXPECT_EQ(hv_.FreePoolFrames(), free_before - 10);
  EXPECT_EQ(hv_.FindDomain(*dom)->tot_pages(), 10u);
}

TEST_F(HypervisorTest, PopulatePhysmapRollsBackOnExhaustion) {
  auto dom = hv_.CreateDomain("a", 1);
  std::size_t free_before = hv_.FreePoolFrames();
  auto r = hv_.PopulatePhysmap(*dom, free_before + 1, PageRole::kData);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hv_.FreePoolFrames(), free_before);
  EXPECT_EQ(hv_.FindDomain(*dom)->tot_pages(), 0u);
}

TEST_F(HypervisorTest, SpecialPagesRecorded) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.AllocSpecialPage(*dom, PageRole::kStartInfo).ok());
  ASSERT_TRUE(hv_.AllocSpecialPage(*dom, PageRole::kConsoleRing).ok());
  ASSERT_TRUE(hv_.AllocSpecialPage(*dom, PageRole::kXenstoreRing).ok());
  const Domain* d = hv_.FindDomain(*dom);
  EXPECT_EQ(d->start_info_gfn, 0u);
  EXPECT_EQ(d->console_ring_gfn, 1u);
  EXPECT_EQ(d->xenstore_ring_gfn, 2u);
}

TEST_F(HypervisorTest, GuestReadWriteRoundTrip) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 2, PageRole::kData).ok());
  const char msg[] = "hello";
  ASSERT_TRUE(hv_.WriteGuestPage(*dom, 1, 64, msg, sizeof(msg)).ok());
  char out[sizeof(msg)] = {};
  ASSERT_TRUE(hv_.ReadGuestPage(*dom, 1, 64, out, sizeof(msg)).ok());
  EXPECT_STREQ(out, "hello");
}

TEST_F(HypervisorTest, WriteOutsidePageRejected) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 1, PageRole::kData).ok());
  char b = 0;
  EXPECT_EQ(hv_.WriteGuestPage(*dom, 0, kPageSize, &b, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(hv_.WriteGuestPage(*dom, 5, 0, &b, 1).code(), StatusCode::kOutOfRange);
}

TEST_F(HypervisorTest, WriteToTextPageDenied) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 1, PageRole::kImageText).ok());
  char b = 0;
  EXPECT_EQ(hv_.WriteGuestPage(*dom, 0, 0, &b, 1).code(), StatusCode::kPermissionDenied);
}

TEST_F(HypervisorTest, BuildPageTablesChargesPrivateFrames) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 1024, PageRole::kData).ok());
  ASSERT_TRUE(hv_.BuildPageTables(*dom).ok());
  const Domain* d = hv_.FindDomain(*dom);
  EXPECT_EQ(d->page_table_frames.size(), PageTablePagesFor(1024));
  EXPECT_EQ(d->p2m_frames.size(), 1u);
  // Rebuild releases the old tables first.
  std::size_t free_mid = hv_.FreePoolFrames();
  ASSERT_TRUE(hv_.BuildPageTables(*dom).ok());
  EXPECT_EQ(hv_.FreePoolFrames(), free_mid);
}

TEST_F(HypervisorTest, DestroyReleasesEverything) {
  std::size_t free_before = hv_.FreePoolFrames();
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 100, PageRole::kData).ok());
  ASSERT_TRUE(hv_.BuildPageTables(*dom).ok());
  ASSERT_TRUE(hv_.DestroyDomain(*dom).ok());
  EXPECT_EQ(hv_.FreePoolFrames(), free_before);
  EXPECT_EQ(hv_.FindDomain(*dom), nullptr);
}

TEST_F(HypervisorTest, Dom0CannotBeDestroyed) {
  EXPECT_EQ(hv_.DestroyDomain(kDom0).code(), StatusCode::kPermissionDenied);
}

TEST_F(HypervisorTest, PauseUnpause) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.UnpauseDomain(*dom).ok());
  EXPECT_EQ(hv_.FindDomain(*dom)->state, DomainState::kRunning);
  ASSERT_TRUE(hv_.PauseDomain(*dom).ok());
  EXPECT_TRUE(hv_.FindDomain(*dom)->IsPaused());
}

TEST_F(HypervisorTest, TouchMarksPagesAndCharges) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 8, PageRole::kData).ok());
  SimTime before = loop_.Now();
  ASSERT_TRUE(hv_.TouchGuestPages(*dom, 0, 8).ok());
  EXPECT_GT(loop_.Now(), before);
  EXPECT_EQ(hv_.TouchGuestPages(*dom, 5, 10).code(), StatusCode::kOutOfRange);
}

TEST_F(HypervisorTest, GrantAndMap) {
  auto granter = hv_.CreateDomain("g", 1);
  auto mapper = hv_.CreateDomain("m", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*granter, 1, PageRole::kData).ok());
  auto ref = hv_.GrantAccess(*granter, *mapper, 0, false);
  ASSERT_TRUE(ref.ok());
  auto gfn = hv_.MapGrant(*mapper, *granter, *ref);
  ASSERT_TRUE(gfn.ok());
  EXPECT_EQ(*gfn, 0u);
  // A third domain may not map it.
  auto other = hv_.CreateDomain("o", 1);
  EXPECT_EQ(hv_.MapGrant(*other, *granter, *ref).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(hv_.UnmapGrant(*mapper, *granter, *ref).ok());
  EXPECT_TRUE(hv_.EndGrantAccess(*granter, *ref).ok());
}

TEST_F(HypervisorTest, GrantCannotEndWhileMapped) {
  auto granter = hv_.CreateDomain("g", 1);
  auto mapper = hv_.CreateDomain("m", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*granter, 1, PageRole::kData).ok());
  auto ref = hv_.GrantAccess(*granter, *mapper, 0, true);
  ASSERT_TRUE(hv_.MapGrant(*mapper, *granter, *ref).ok());
  EXPECT_EQ(hv_.EndGrantAccess(*granter, *ref).code(), StatusCode::kFailedPrecondition);
}

TEST_F(HypervisorTest, EvtchnInterdomainDelivery) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  ASSERT_TRUE(hv_.UnpauseDomain(*a).ok());
  ASSERT_TRUE(hv_.UnpauseDomain(*b).ok());
  auto port_b = hv_.EvtchnAllocUnbound(*b, *a);
  ASSERT_TRUE(port_b.ok());
  auto port_a = hv_.EvtchnBindInterdomain(*a, *b, *port_b);
  ASSERT_TRUE(port_a.ok());
  EvtchnPort fired = kInvalidPort;
  hv_.SetEvtchnHandler(*b, [&](EvtchnPort p) { fired = p; });
  ASSERT_TRUE(hv_.EvtchnSend(*a, *port_a).ok());
  loop_.Run();
  EXPECT_EQ(fired, *port_b);
}

TEST_F(HypervisorTest, EvtchnDeliveryDeferredWhilePaused) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  ASSERT_TRUE(hv_.UnpauseDomain(*a).ok());
  auto port_b = hv_.EvtchnAllocUnbound(*b, *a);
  auto port_a = hv_.EvtchnBindInterdomain(*a, *b, *port_b);
  bool fired = false;
  hv_.SetEvtchnHandler(*b, [&](EvtchnPort) { fired = true; });
  ASSERT_TRUE(hv_.EvtchnSend(*a, *port_a).ok());
  loop_.Run();
  EXPECT_FALSE(fired);  // b is paused; pending bit stays set
  EXPECT_TRUE(hv_.FindDomain(*b)->evtchns.entry(*port_b).pending);
}

TEST_F(HypervisorTest, BindInterdomainChecksReservation) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  auto c = hv_.CreateDomain("c", 1);
  auto port_b = hv_.EvtchnAllocUnbound(*b, *a);  // reserved for a
  EXPECT_EQ(hv_.EvtchnBindInterdomain(*c, *b, *port_b).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(HypervisorTest, VirqRoundTrip) {
  auto port = hv_.EvtchnBindVirq(kDom0, Virq::kCloned);
  ASSERT_TRUE(port.ok());
  EvtchnPort fired = kInvalidPort;
  hv_.SetEvtchnHandler(kDom0, [&](EvtchnPort p) { fired = p; });
  ASSERT_TRUE(hv_.RaiseVirq(kDom0, Virq::kCloned).ok());
  loop_.Run();
  EXPECT_EQ(fired, *port);
  // One binding per VIRQ per domain.
  EXPECT_EQ(hv_.EvtchnBindVirq(kDom0, Virq::kCloned).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(HypervisorTest, VirqWithoutBindingFails) {
  EXPECT_EQ(hv_.RaiseVirq(kDom0, Virq::kCloned).code(), StatusCode::kNotFound);
}

TEST_F(HypervisorTest, HypercallsNamingAnUnknownDomainFailNotFound) {
  constexpr DomId kNoSuchDomain = 999;
  EXPECT_EQ(hv_.PauseDomain(kNoSuchDomain).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.UnpauseDomain(kNoSuchDomain).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.SetDomainName(kNoSuchDomain, "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.PopulatePhysmap(kNoSuchDomain, 1, PageRole::kData).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(hv_.BuildPageTables(kNoSuchDomain).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.ForceCowResolve(kNoSuchDomain, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.SetDirtyLogging(kNoSuchDomain, true).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.FetchAndResetDirtyLog(kNoSuchDomain).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.EvtchnBindVirq(kNoSuchDomain, Virq::kTimer).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(hv_.RaiseVirq(kNoSuchDomain, Virq::kTimer).code(), StatusCode::kNotFound);
  // A known domain with a gfn past its p2m is out of range, not unknown.
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 1, PageRole::kData).ok());
  EXPECT_EQ(hv_.ForceCowResolve(*dom, 1).code(), StatusCode::kOutOfRange);
}

TEST_F(HypervisorTest, FamilyRelations) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  auto c = hv_.CreateDomain("c", 1);
  Domain* db = hv_.FindDomain(*b);
  Domain* dc = hv_.FindDomain(*c);
  db->parent = *a;
  db->family_root = *a;
  hv_.FindDomain(*a)->children.push_back(*b);
  dc->parent = *b;
  dc->family_root = *a;
  db->children.push_back(*c);
  EXPECT_TRUE(hv_.IsDescendantOf(*b, *a));
  EXPECT_TRUE(hv_.IsDescendantOf(*c, *a));
  EXPECT_FALSE(hv_.IsDescendantOf(*a, *b));
  EXPECT_TRUE(hv_.SameFamily(*a, *c));
  EXPECT_FALSE(hv_.SameFamily(*a, kDom0));
}

TEST_F(HypervisorTest, CloneConfigViaDomctl) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.SetCloneConfig(*dom, true, 16).ok());
  EXPECT_TRUE(hv_.FindDomain(*dom)->cloning_enabled);
  EXPECT_EQ(hv_.FindDomain(*dom)->max_clones, 16u);
  EXPECT_EQ(hv_.SetCloneConfig(999, true, 1).code(), StatusCode::kNotFound);
}

TEST_F(HypervisorTest, HypercallsAreCounted) {
  std::uint64_t before = hv_.hypercall_count();
  hv_.ChargeHypercall();
  hv_.ChargeHypercall();
  EXPECT_EQ(hv_.hypercall_count(), before + 2);
}

TEST_F(HypervisorTest, FrameOracleNamesAMappingAboveTheUsedLimit) {
  auto dom = hv_.CreateDomain("a", 1);
  ASSERT_TRUE(hv_.PopulatePhysmap(*dom, 2, PageRole::kData).ok());
  ASSERT_EQ(CheckFrameInvariants(hv_), "");
  // Past the used limit but inside the pool: no FrameInfo exists for it.
  const Mfn never_used = static_cast<Mfn>(hv_.frames().used_limit() + 7);
  ASSERT_LT(never_used, hv_.frames().total_frames());
  Domain* d = hv_.FindDomain(*dom);
  const Mfn real = d->p2m[1].mfn;
  d->p2m[1].mfn = never_used;
  EXPECT_EQ(CheckFrameInvariants(hv_), "never-allocated frame mapped: dom " +
                                           std::to_string(*dom) + " mfn " +
                                           std::to_string(never_used));
  d->p2m[1].mfn = real;
  EXPECT_EQ(CheckFrameInvariants(hv_), "");
}

TEST(GrantTableTest, CloneStartsUnmappedAndLeavesTheParentsMappings) {
  GrantTable parent(8);
  auto ref = parent.GrantAccess(/*grantee=*/5, /*gfn=*/3, /*readonly=*/false);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(parent.Map(*ref, 5, false).ok());
  ASSERT_TRUE(parent.Map(*ref, 5, false).ok());

  GrantTable child = parent.CloneForChild();
  const GrantEntry& ce = child.entry(*ref);
  EXPECT_TRUE(ce.in_use);
  EXPECT_EQ(ce.grantee, 5);
  EXPECT_EQ(ce.gfn, 3u);
  EXPECT_EQ(ce.map_count, 0u);
  EXPECT_TRUE(child.mappings().empty());
  EXPECT_EQ(child.active_entries(), 1u);
  EXPECT_EQ(child.Unmap(*ref, 5).code(), StatusCode::kFailedPrecondition);

  EXPECT_EQ(parent.entry(*ref).map_count, 2u);
  ASSERT_EQ(parent.mappings().size(), 2u);
  for (const GrantMapping& m : parent.mappings()) {
    EXPECT_EQ(m.ref, *ref);
    EXPECT_EQ(m.mapper, 5);
  }
  // A domain holding no mapping cannot drop someone else's.
  EXPECT_EQ(parent.Unmap(*ref, 6).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(parent.entry(*ref).map_count, 2u);
  ASSERT_TRUE(parent.Unmap(*ref, 5).ok());
  EXPECT_EQ(parent.entry(*ref).map_count, 1u);
  EXPECT_EQ(parent.mappings().size(), 1u);
}

// Grant and event-channel tables are sized by use under a configured cap.
// A cap of 8 makes the boundary cheap to reach.
class UseSizedTablesTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kCap = 8;

  UseSizedTablesTest() : hv_(loop_, DefaultCostModel(), TinyTablesConfig(), metrics_, faults_) {}

  static HypervisorConfig TinyTablesConfig() {
    HypervisorConfig cfg;
    cfg.pool_frames = 1024;
    cfg.grant_entries_per_domain = kCap;
    cfg.evtchn_ports_per_domain = kCap;
    return cfg;
  }

  // A granter with one data page, ready to grant it.
  DomId Granter() {
    auto d = hv_.CreateDomain("g", 1);
    EXPECT_TRUE(hv_.PopulatePhysmap(*d, 1, PageRole::kData).ok());
    return *d;
  }

  EventLoop loop_;
  MetricsRegistry metrics_;
  FaultInjector faults_{metrics_};
  Hypervisor hv_;
};

TEST_F(UseSizedTablesTest, GrantReusesTheLowestFreeRef) {
  DomId g = Granter();
  for (GrantRef want = 0; want < 5; ++want) {
    EXPECT_EQ(*hv_.GrantAccess(g, kDom0, 0, false), want);
  }
  ASSERT_TRUE(hv_.EndGrantAccess(g, 3).ok());
  ASSERT_TRUE(hv_.EndGrantAccess(g, 1).ok());
  EXPECT_EQ(*hv_.GrantAccess(g, kDom0, 0, false), 1u);
  EXPECT_EQ(*hv_.GrantAccess(g, kDom0, 0, false), 3u);
  EXPECT_EQ(*hv_.GrantAccess(g, kDom0, 0, false), 5u);
  EXPECT_EQ(hv_.FindDomain(g)->grants.used_limit(), 6u);
}

TEST_F(UseSizedTablesTest, EvtchnReusesTheLowestFreePort) {
  auto d = hv_.CreateDomain("d", 1);
  for (EvtchnPort want = 1; want <= 4; ++want) {
    EXPECT_EQ(*hv_.EvtchnAllocUnbound(*d, kDom0), want);
  }
  ASSERT_TRUE(hv_.EvtchnClose(*d, 4).ok());
  ASSERT_TRUE(hv_.EvtchnClose(*d, 2).ok());
  EXPECT_EQ(*hv_.EvtchnAllocUnbound(*d, kDom0), 2u);
  EXPECT_EQ(*hv_.EvtchnAllocUnbound(*d, kDom0), 4u);
  EXPECT_EQ(*hv_.EvtchnAllocUnbound(*d, kDom0), 5u);
  EXPECT_EQ(hv_.FindDomain(*d)->evtchns.used_port_limit(), 6u);
}

TEST_F(UseSizedTablesTest, GrantTableExhaustsAtTheCapAlsoInAClone) {
  DomId g = Granter();
  for (std::size_t i = 0; i < kCap; ++i) {
    ASSERT_TRUE(hv_.GrantAccess(g, kDomChild, 0, false).ok()) << i;
  }
  EXPECT_EQ(hv_.GrantAccess(g, kDom0, 0, false).status().code(),
            StatusCode::kResourceExhausted);
  const GrantTable& parent = hv_.FindDomain(g)->grants;
  EXPECT_EQ(parent.used_limit(), kCap);

  GrantTable child = parent.CloneForChild();
  EXPECT_EQ(child.max_entries(), kCap);
  EXPECT_EQ(child.active_entries(), kCap);
  EXPECT_EQ(child.GrantAccess(kDom0, 0, false).status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(child.EndAccess(6).ok());
  EXPECT_EQ(*child.GrantAccess(kDom0, 0, false), 6u);
  EXPECT_EQ(child.GrantAccess(kDom0, 0, false).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(UseSizedTablesTest, EvtchnTableExhaustsAtTheCapAlsoInAClone) {
  auto d = hv_.CreateDomain("d", 1);
  // Port 0 is reserved, so a cap of 8 leaves ports 1..7.
  for (std::size_t i = 1; i < kCap; ++i) {
    ASSERT_TRUE(hv_.EvtchnAllocUnbound(*d, kDomChild).ok()) << i;
  }
  EXPECT_EQ(hv_.EvtchnAllocUnbound(*d, kDom0).status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hv_.EvtchnBindVirq(*d, Virq::kTimer).status().code(),
            StatusCode::kResourceExhausted);
  const EvtchnTable& parent = hv_.FindDomain(*d)->evtchns;
  EXPECT_EQ(parent.used_port_limit(), kCap);

  EvtchnTable child = parent.CloneForChild();
  EXPECT_EQ(child.max_ports(), kCap);
  EXPECT_EQ(child.active_ports(), kCap - 1);
  EXPECT_EQ(child.AllocUnbound(kDom0).status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(child.Close(3).ok());
  EXPECT_EQ(*child.AllocUnbound(kDom0), 3u);
  EXPECT_EQ(child.AllocUnbound(kDom0).status().code(), StatusCode::kResourceExhausted);
}

TEST_F(UseSizedTablesTest, EntriesAboveTheUsedLimitReadAsFree) {
  DomId g = Granter();
  ASSERT_TRUE(hv_.GrantAccess(g, kDom0, 0, true).ok());
  ASSERT_TRUE(hv_.EvtchnAllocUnbound(g, kDom0).ok());
  const Domain* d = hv_.FindDomain(g);
  ASSERT_EQ(d->grants.used_limit(), 1u);
  ASSERT_EQ(d->evtchns.used_port_limit(), 2u);
  for (std::uint32_t i : {2u, 5u, static_cast<std::uint32_t>(kCap) - 1, 1000u}) {
    const GrantEntry& ge = d->grants.entry(i);
    EXPECT_FALSE(ge.in_use) << i;
    EXPECT_EQ(ge.grantee, kDomInvalid) << i;
    EXPECT_EQ(ge.map_count, 0u) << i;
    const std::vector<GrantMapping>& maps = d->grants.mappings();
    EXPECT_TRUE(std::none_of(maps.begin(), maps.end(),
                             [i](const GrantMapping& m) { return m.ref == i; }))
        << i;
    const EvtchnEntry& ee = d->evtchns.entry(i);
    EXPECT_EQ(ee.state, EvtchnState::kFree) << i;
    EXPECT_FALSE(ee.pending) << i;
    EXPECT_FALSE(d->evtchns.ValidPort(i)) << i;
  }
  EXPECT_EQ(hv_.MapGrant(kDom0, g, 5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.EndGrantAccess(g, 5).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.EvtchnSend(g, 5).code(), StatusCode::kNotFound);
  EXPECT_EQ(hv_.EvtchnClose(g, 5).code(), StatusCode::kNotFound);
  // Reading never grows the tables.
  EXPECT_EQ(d->grants.used_limit(), 1u);
  EXPECT_EQ(d->evtchns.used_port_limit(), 2u);
}

TEST_F(UseSizedTablesTest, SendToARemotePortAboveItsUsedLimitFails) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  auto port_a = hv_.EvtchnAllocUnbound(*a, *b);
  auto port_b = hv_.EvtchnBindInterdomain(*b, *a, *port_a);
  ASSERT_TRUE(port_b.ok());
  ASSERT_EQ(hv_.FindDomain(*b)->evtchns.used_port_limit(), 2u);
  // Point a's connected end at a port of b in the gap between b's used
  // limit and its cap, then past the cap: neither may touch b's table.
  EvtchnEntry& ea = hv_.FindDomain(*a)->evtchns.mutable_entry(*port_a);
  for (EvtchnPort gap : {EvtchnPort{5}, static_cast<EvtchnPort>(kCap) - 1,
                         static_cast<EvtchnPort>(kCap), EvtchnPort{4096}}) {
    ea.remote_port = gap;
    EXPECT_EQ(hv_.EvtchnSend(*a, *port_a).code(), StatusCode::kFailedPrecondition) << gap;
    EXPECT_EQ(hv_.FindDomain(*b)->evtchns.used_port_limit(), 2u);
  }
  EXPECT_FALSE(hv_.FindDomain(*b)->evtchns.entry(*port_b).pending);
}

TEST_F(UseSizedTablesTest, PendingOnTheHighestUsedPortIsDeliveredOnUnpause) {
  auto a = hv_.CreateDomain("a", 1);
  auto b = hv_.CreateDomain("b", 1);
  ASSERT_TRUE(hv_.UnpauseDomain(*a).ok());
  // b holds three reservations for a; only the last (highest) connects.
  EvtchnPort highest = kInvalidPort;
  for (int i = 0; i < 3; ++i) {
    highest = *hv_.EvtchnAllocUnbound(*b, *a);
  }
  auto port_a = hv_.EvtchnBindInterdomain(*a, *b, highest);
  ASSERT_TRUE(port_a.ok());
  ASSERT_EQ(hv_.FindDomain(*b)->evtchns.used_port_limit(), highest + 1);
  std::vector<EvtchnPort> fired;
  hv_.SetEvtchnHandler(*b, [&](EvtchnPort p) { fired.push_back(p); });
  ASSERT_TRUE(hv_.EvtchnSend(*a, *port_a).ok());
  loop_.Run();
  EXPECT_TRUE(fired.empty());  // b is still paused
  ASSERT_TRUE(hv_.UnpauseDomain(*b).ok());
  loop_.Run();
  EXPECT_EQ(fired, std::vector<EvtchnPort>{highest});
  EXPECT_FALSE(hv_.FindDomain(*b)->evtchns.entry(highest).pending);
}

TEST_F(UseSizedTablesTest, SelfBindingThatGrowsTheTableConnectsBothEnds) {
  // Binding to one's own unbound port allocates in the same table the
  // remote end lives in; the growth must not lose the remote end's update.
  auto d = hv_.CreateDomain("d", 1);
  auto reserved = hv_.EvtchnAllocUnbound(*d, *d);
  auto port = hv_.EvtchnBindInterdomain(*d, *d, *reserved);
  ASSERT_TRUE(port.ok());
  const EvtchnTable& t = hv_.FindDomain(*d)->evtchns;
  EXPECT_EQ(t.entry(*reserved).state, EvtchnState::kInterdomain);
  EXPECT_EQ(t.entry(*reserved).remote_port, *port);
  EXPECT_EQ(t.entry(*port).state, EvtchnState::kInterdomain);
  EXPECT_EQ(t.entry(*port).remote_port, *reserved);
}

}  // namespace
}  // namespace nephele
