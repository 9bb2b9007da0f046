#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/xenstore/path.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

class XenclonedTest : public ::testing::Test {
 protected:
  XenclonedTest() : system_(SmallSystem()) {}

  static SystemConfig SmallSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 128 * 1024;
    return cfg;
  }

  DomId BootParent(bool with_p9 = false) {
    DomainConfig cfg;
    cfg.name = "parent";
    cfg.max_clones = 32;
    cfg.with_p9fs = with_p9;
    if (with_p9) {
      (void)system_.devices().hostfs().CreateFile(cfg.p9_export + "/python3");
    }
    auto dom = system_.toolstack().CreateDomain(cfg);
    EXPECT_TRUE(dom.ok());
    return *dom;
  }

  DomId CloneOnce(DomId parent) {
    const Domain* p = system_.hypervisor().FindDomain(parent);
    auto children =
        system_.clone_engine().Clone({parent, parent, p->p2m[p->start_info_gfn].mfn, 1});
    EXPECT_TRUE(children.ok()) << children.status().ToString();
    system_.Settle();
    return children->front();
  }

  std::uint64_t XenclonedCounter(const std::string& name) {
    return system_.metrics().GetCounter("xencloned/" + name).value();
  }

  std::uint64_t XenstoreRequests(const std::string& kind) {
    return system_.metrics().CounterValue("xenstore/requests/" + kind);
  }

  NepheleSystem system_;
};

TEST_F(XenclonedTest, SecondStageBuildsChildRegistry) {
  DomId parent = BootParent();
  DomId child = CloneOnce(parent);
  XenstoreDaemon& xs = system_.xenstore();
  // Introduced with parent id, full Xenstore tree cloned & rewritten.
  EXPECT_TRUE(xs.DomainKnown(child));
  EXPECT_EQ(*xs.Read(XsDomainPath(child) + "/domid"), std::to_string(child));
  EXPECT_EQ(*xs.Read(XsFrontendPath(child, "vif", 0) + "/backend"),
            XsBackendPath(kDom0, "vif", child, 0));
  EXPECT_EQ(*xs.Read(XsBackendPath(kDom0, "vif", child, 0) + "/frontend-id"),
            std::to_string(child));
  // Toolstack registry adopted the clone.
  EXPECT_NE(system_.toolstack().FindConfig(child), nullptr);
  EXPECT_NE(system_.toolstack().FindDevices(child), nullptr);
}

TEST_F(XenclonedTest, CloneKeepsPortAndStateValues) {
  // Values that merely equal the parent's domid are not domid references:
  // dom 1's store port, dom 2's console port, dom 4's vif event channel and
  // Connected states reach the clone unchanged.
  for (DomId expected = 1; expected <= 4; ++expected) {
    ASSERT_EQ(BootParent(), expected);
  }
  const XenstoreDaemon& xs = system_.xenstore();
  for (DomId parent : {1u, 2u, 4u}) {
    const DomId child = CloneOnce(parent);
    for (const char* key : {"/store/port", "/console/port", "/device/vif/0/event-channel",
                            "/device/vif/0/state"}) {
      const std::string* want = xs.PeekValue(XsDomainPath(parent) + key);
      const std::string* got = xs.PeekValue(XsDomainPath(child) + key);
      ASSERT_NE(want, nullptr) << key;
      ASSERT_NE(got, nullptr) << key;
      EXPECT_EQ(*got, *want) << "child of dom" << parent << key;
    }
    const std::string* want = xs.PeekValue(XsBackendPath(kDom0, "vif", parent, 0) + "/state");
    const std::string* got = xs.PeekValue(XsBackendPath(kDom0, "vif", child, 0) + "/state");
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, *want) << "child of dom" << parent;
  }
}

TEST_F(XenclonedTest, GeneratedNamesAreUnique) {
  DomId parent = BootParent();
  DomId c1 = CloneOnce(parent);
  DomId c2 = CloneOnce(parent);
  std::string n1 = system_.hypervisor().FindDomain(c1)->name;
  std::string n2 = system_.hypervisor().FindDomain(c2)->name;
  EXPECT_NE(n1, n2);
  EXPECT_NE(n1, "parent");
  EXPECT_EQ(*system_.xenstore().Read(XsDomainPath(c1) + "/name"), n1);
}

TEST_F(XenclonedTest, CloneUsesFewXenstoreRequests) {
  DomId parent = BootParent();
  std::uint64_t before = XenstoreRequests("total");
  (void)CloneOnce(parent);
  std::uint64_t clone_requests = XenstoreRequests("total") - before;
  // xs_clone collapses per-entry writes: single-digit requests per clone
  // (Sec. 5.2.1) vs ~40 for a boot.
  EXPECT_LE(clone_requests, 10u);
  EXPECT_GE(XenstoreRequests("xs_clone"), 2u);
}

TEST_F(XenclonedTest, DeepCopyModeWritesEveryEntry) {
  DomId parent = BootParent();
  system_.xencloned().SetUseXsClone(false);
  std::uint64_t before = XenstoreRequests("write");
  (void)CloneOnce(parent);
  std::uint64_t writes = XenstoreRequests("write") - before;
  EXPECT_GT(writes, 20u);  // one request per entry
  EXPECT_GT(XenclonedCounter("deep_copy_writes"), 20u);
}

TEST_F(XenclonedTest, ParentInfoCachedAfterFirstClone) {
  DomId parent = BootParent();
  (void)CloneOnce(parent);
  EXPECT_EQ(XenclonedCounter("cache_misses"), 1u);
  EXPECT_EQ(XenclonedCounter("cache_hits"), 0u);
  (void)CloneOnce(parent);
  EXPECT_EQ(XenclonedCounter("cache_misses"), 1u);
  EXPECT_EQ(XenclonedCounter("cache_hits"), 1u);
}

TEST_F(XenclonedTest, SecondCloneFasterThanFirst) {
  DomId parent = BootParent();
  SimTime t0 = system_.Now();
  (void)CloneOnce(parent);
  SimDuration first = system_.Now() - t0;
  SimTime t1 = system_.Now();
  (void)CloneOnce(parent);
  SimDuration second = system_.Now() - t1;
  EXPECT_LT(second, first);  // Sec. 6.2: 3 ms vs 1.9 ms userspace ops
}

TEST_F(XenclonedTest, CloneVifAttachedToDefaultSwitch) {
  Bond bond;
  system_.toolstack().SetDefaultSwitch(&bond);
  DomId parent = BootParent();
  EXPECT_EQ(bond.num_ports(), 1u);
  DomId child = CloneOnce(parent);
  EXPECT_EQ(bond.num_ports(), 2u);
  Vif* vif = system_.devices().netback().FindVif(DeviceId{child, DeviceType::kVif, 0});
  ASSERT_NE(vif, nullptr);
  EXPECT_EQ(vif->state(), XenbusState::kConnected);
  EXPECT_EQ(vif->attached_switch(), &bond);
}

TEST_F(XenclonedTest, CloneConsoleExists) {
  DomId parent = BootParent();
  (void)system_.devices().console().GuestWrite(parent, "parent says hi");
  DomId child = CloneOnce(parent);
  ASSERT_TRUE(system_.devices().console().HasConsole(child));
  EXPECT_EQ(*system_.devices().console().Output(child), "");  // not copied
}

TEST_F(XenclonedTest, P9FidTableClonedViaQmp) {
  DomId parent = BootParent(/*with_p9=*/true);
  GuestDevices* pd = system_.toolstack().FindDevices(parent);
  ASSERT_NE(pd->p9, nullptr);
  std::size_t parent_fids = pd->p9->NumFids(parent);
  DomId child = CloneOnce(parent);
  GuestDevices* cd = system_.toolstack().FindDevices(child);
  ASSERT_NE(cd->p9, nullptr);
  EXPECT_EQ(cd->p9, pd->p9);  // same backend process for the family
  EXPECT_EQ(cd->p9->NumFids(child), parent_fids);
}

TEST_F(XenclonedTest, IdleP9BackendIsReaped) {
  DeviceManager& devices = system_.devices();
  Toolstack& toolstack = system_.toolstack();
  const std::size_t bytes_before = devices.Dom0BackendBytes();
  const std::size_t procs_before = devices.p9().NumProcesses();
  for (int i = 0; i < 3; ++i) {
    const DomId dom = BootParent(/*with_p9=*/true);
    EXPECT_EQ(devices.p9().NumProcesses(), procs_before + 1);
    ASSERT_TRUE(toolstack.DestroyDomain(dom).ok());
    EXPECT_EQ(devices.p9().NumProcesses(), procs_before) << "cycle " << i;
    EXPECT_EQ(devices.Dom0BackendBytes(), bytes_before) << "cycle " << i;
  }

  // The family's one process lives while any member is still served.
  const DomId parent = BootParent(/*with_p9=*/true);
  const DomId c1 = CloneOnce(parent);
  const DomId c2 = CloneOnce(parent);
  const P9BackendProcess* proc = devices.p9().FindServing(parent);
  ASSERT_NE(proc, nullptr);
  ASSERT_TRUE(toolstack.DestroyDomain(c1).ok());
  ASSERT_TRUE(toolstack.DestroyDomain(parent).ok());
  EXPECT_EQ(devices.p9().NumProcesses(), procs_before + 1);
  EXPECT_EQ(devices.p9().FindServing(c2), proc);
  EXPECT_EQ(toolstack.FindDevices(c2)->p9, proc);
  ASSERT_TRUE(toolstack.DestroyDomain(c2).ok());
  EXPECT_EQ(devices.p9().NumProcesses(), procs_before);
  EXPECT_EQ(devices.Dom0BackendBytes(), bytes_before);
}

TEST_F(XenclonedTest, ClonesCompletedCounted) {
  DomId parent = BootParent();
  (void)CloneOnce(parent);
  (void)CloneOnce(parent);
  EXPECT_EQ(XenclonedCounter("clones_completed"), 2u);
}

TEST_F(XenclonedTest, StartClonesPausedRespected) {
  DomainConfig cfg;
  cfg.name = "p";
  cfg.max_clones = 4;
  cfg.start_clones_paused = true;
  auto parent = system_.toolstack().CreateDomain(cfg);
  ASSERT_TRUE(parent.ok());
  const Domain* p = system_.hypervisor().FindDomain(*parent);
  auto children =
      system_.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, 1});
  ASSERT_TRUE(children.ok());
  system_.Settle();
  // Parent resumed, child left paused (Sec. 5).
  EXPECT_EQ(system_.hypervisor().FindDomain(*parent)->state, DomainState::kRunning);
  EXPECT_TRUE(system_.hypervisor().FindDomain(children->front())->IsPaused());
}

// One lifecycle per device set and Xenstore mode: boot a parent, clone it
// once, destroy the child and then the parent.
struct DeviceSet {
  const char* name;
  bool with_p9fs;
  bool with_vbd;
  std::uint64_t deep_copy_writes;  // write requests of one deep-copied clone
};

void PrintTo(const DeviceSet& set, std::ostream* os) { *os << set.name; }

using XsEntries = std::vector<std::pair<std::string, std::string>>;

struct LifecycleRun {
  DomId child = kDomInvalid;
  XsEntries domain;    // the child's /local/domain/<child> entries
  XsEntries backends;  // the child's backend directories
  std::uint64_t clone_writes = 0;
};

LifecycleRun RunLifecycle(const DeviceSet& set, bool use_xs_clone) {
  SCOPED_TRACE(std::string(set.name) + (use_xs_clone ? " xs_clone" : " deep copy"));
  SystemConfig config;
  config.hypervisor.pool_frames = 128 * 1024;
  NepheleSystem system(config);
  system.xencloned().SetUseXsClone(use_xs_clone);
  const XenstoreDaemon& xs = system.xenstore();
  const std::size_t entries_before = xs.NumEntries();

  DomainConfig cfg;
  cfg.name = "parent";
  cfg.max_clones = 4;
  cfg.with_p9fs = set.with_p9fs;
  cfg.with_vbd = set.with_vbd;
  auto parent = system.toolstack().CreateDomain(cfg);
  EXPECT_TRUE(parent.ok()) << parent.status().ToString();
  if (!parent.ok()) {
    return {};
  }
  const std::uint64_t writes_before = system.metrics().CounterValue("xenstore/requests/write");
  const Domain* p = system.hypervisor().FindDomain(*parent);
  auto children =
      system.clone_engine().Clone({*parent, *parent, p->p2m[p->start_info_gfn].mfn, 1});
  EXPECT_TRUE(children.ok()) << children.status().ToString();
  if (!children.ok()) {
    return {};
  }
  system.Settle();

  LifecycleRun run;
  run.child = children->front();
  run.clone_writes = system.metrics().CounterValue("xenstore/requests/write") - writes_before;
  run.domain = xs.PeekSubtree(XsDomainPath(run.child));
  for (const char* type : {"vif", "9pfs", "vbd"}) {
    for (auto& entry : xs.PeekSubtree(XsBackendPath(kDom0, type, run.child, 0))) {
      run.backends.push_back(std::move(entry));
    }
  }
  // Only the deep copy writes the /vm and /libxl records, like a boot.
  EXPECT_EQ(xs.Exists("/vm/" + std::to_string(run.child)), !use_xs_clone);
  EXPECT_EQ(xs.Exists("/libxl/" + std::to_string(run.child)), !use_xs_clone);

  EXPECT_TRUE(system.toolstack().DestroyDomain(run.child).ok());
  EXPECT_TRUE(system.toolstack().DestroyDomain(*parent).ok());
  ExpectNoDom0Trace(system, run.child);
  ExpectNoDom0Trace(system, *parent);
  EXPECT_EQ(xs.NumEntries(), entries_before);
  return run;
}

class CloneLifecycleTest : public ::testing::TestWithParam<DeviceSet> {};

TEST_P(CloneLifecycleTest, XsCloneAndDeepCopyBuildTheSameChild) {
  const DeviceSet& set = GetParam();
  const LifecycleRun xs_clone = RunLifecycle(set, /*use_xs_clone=*/true);
  const LifecycleRun deep = RunLifecycle(set, /*use_xs_clone=*/false);
  ASSERT_NE(xs_clone.child, kDomInvalid);
  ASSERT_EQ(deep.child, xs_clone.child);
  EXPECT_FALSE(xs_clone.domain.empty());
  EXPECT_FALSE(xs_clone.backends.empty());
  EXPECT_EQ(deep.domain, xs_clone.domain);
  EXPECT_EQ(deep.backends, xs_clone.backends);
  EXPECT_EQ(deep.clone_writes, set.deep_copy_writes);
}

INSTANTIATE_TEST_SUITE_P(
    DeviceSets, CloneLifecycleTest,
    ::testing::Values(DeviceSet{"vif", false, false, 27}, DeviceSet{"vif_9pfs", true, false, 35},
                      DeviceSet{"vif_9pfs_vbd", true, true, 42}),
    [](const ::testing::TestParamInfo<DeviceSet>& set) { return std::string(set.param.name); });

}  // namespace
}  // namespace nephele
