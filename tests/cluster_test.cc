// Fabric-level coverage: the Host/ClusterFabric redesign (DESIGN.md §16).
// Image replication to peers, first-class cross-host migration with typed
// errors and clean rollback under link faults/partitions (frame conservation
// asserted on both hosts via src/hypervisor/invariants.h), cross-host
// Acquire through each placement policy, cross-host warm pools, the
// NepheleSystem facade, and byte-determinism of the merged cluster exports
// across reruns.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fabric.h"
#include "src/core/system.h"
#include "src/hypervisor/invariants.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sched/cluster_scheduler.h"

namespace nephele {
namespace {

ClusterConfig SmallCluster(std::size_t hosts) {
  ClusterConfig cfg;
  cfg.hosts = hosts;
  cfg.host.hypervisor.pool_frames = 64 * 1024;  // 256 MiB pool per host
  return cfg;
}

DomainConfig GuestConfig(const std::string& name, std::uint32_t max_clones = 64) {
  DomainConfig cfg;
  cfg.name = name;
  cfg.memory_mb = 4;
  cfg.max_clones = max_clones;
  return cfg;
}

DomId Boot(Host& host, const DomainConfig& cfg) {
  auto dom = host.toolstack().CreateDomain(cfg);
  EXPECT_TRUE(dom.ok()) << dom.status().ToString();
  host.Settle();
  return *dom;
}

void ExpectClean(ClusterFabric& fabric) {
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    EXPECT_EQ(CheckHypervisorInvariants(fabric.host(i).hypervisor()), "")
        << "host " << i;
  }
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

TEST(ClusterFacadeTest, NepheleSystemIsASingleHostFabric) {
  NepheleSystem sys;
  EXPECT_EQ(sys.fabric().num_hosts(), 1u);
  EXPECT_EQ(&sys.host(), &sys.fabric().host(0));
  EXPECT_EQ(&sys.metrics(), &sys.host().metrics());
  EXPECT_EQ(&sys.loop(), &sys.fabric().loop());
  EXPECT_EQ(sys.host().metrics_prefix(), "host0/");

  // The facade still boots guests exactly as before.
  DomId dom = Boot(sys, GuestConfig("facade"));
  EXPECT_NE(sys.hypervisor().FindDomain(dom), nullptr);
}

TEST(ClusterFacadeTest, MergedExportOfOneUnprefixedPartEqualsPlainExport) {
  NepheleSystem sys;
  (void)Boot(sys, GuestConfig("export"));
  EXPECT_EQ(ExportMergedJson({{"", &sys.metrics()}}), sys.metrics().ExportJson());
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

TEST(ClusterMigrateTest, MovesDomainBetweenHosts) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("mover", /*max_clones=*/0));
  const std::size_t dst_before = fabric.host(1).hypervisor().NumDomains();

  auto moved = fabric.Migrate(dom, 0, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  fabric.Settle();

  EXPECT_EQ(fabric.host(0).hypervisor().FindDomain(dom), nullptr);
  const Domain* d = fabric.host(1).hypervisor().FindDomain(*moved);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  EXPECT_EQ(fabric.host(1).hypervisor().NumDomains(), dst_before + 1);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/migrations_total"), 1u);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/migrations_failed"), 0u);
  EXPECT_GT(fabric.metrics().CounterValue("fabric/link_tx_bytes"), 0u);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, TypedErrors) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("typed", /*max_clones=*/0));

  EXPECT_EQ(fabric.Migrate(dom, 0, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.Migrate(dom, 0, 7).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.Migrate(DomId{9999}, 0, 1).status().code(), StatusCode::kNotFound);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, FamilyLinkedDomainIsRefusedNamingRelatives) {
  ClusterFabric fabric(SmallCluster(2));
  Host& host = fabric.host(0);
  DomId parent = Boot(host, GuestConfig("ancestor"));
  const Domain* pd = host.hypervisor().FindDomain(parent);
  auto children = host.clone_engine().Clone(
      {kDom0, parent, pd->p2m[pd->start_info_gfn].mfn, 1});
  ASSERT_TRUE(children.ok());
  fabric.Settle();

  auto refused = fabric.Migrate(parent, 0, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  const std::string msg(refused.status().message());
  EXPECT_NE(msg.find("ancestor"), std::string::npos) << msg;
  EXPECT_NE(msg.find("domid " + std::to_string(children->front())), std::string::npos) << msg;

  // The refused migration must not have touched the family.
  EXPECT_NE(host.hypervisor().FindDomain(parent), nullptr);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/migrations_failed"), 1u);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, BeginAbortRestoresTheSource) {
  ClusterFabric fabric(SmallCluster(2));
  Host& host = fabric.host(0);
  DomId dom = Boot(host, GuestConfig("abortee", /*max_clones=*/0));

  auto stream = host.toolstack().BeginMigrateOut(dom);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(host.hypervisor().FindDomain(dom)->state, DomainState::kPaused);
  // A second Begin while one is pending is refused.
  EXPECT_EQ(host.toolstack().BeginMigrateOut(dom).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(host.toolstack().AbortMigrateOut(dom).ok());
  EXPECT_EQ(host.hypervisor().FindDomain(dom)->state, DomainState::kRunning);
  // Nothing pending anymore: Complete/Abort without Begin are typed errors.
  EXPECT_EQ(host.toolstack().CompleteMigrateOut(dom).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(host.toolstack().AbortMigrateOut(dom).code(), StatusCode::kFailedPrecondition);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, LinkFaultMidMigrationRollsBackCleanly) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("survivor", /*max_clones=*/0));
  const std::size_t src_domains = fabric.host(0).hypervisor().NumDomains();
  const std::size_t dst_domains = fabric.host(1).hypervisor().NumDomains();
  const std::size_t src_free = fabric.host(0).hypervisor().FreePoolFrames();
  const std::size_t dst_free = fabric.host(1).hypervisor().FreePoolFrames();

  ASSERT_TRUE(fabric.fault_injector().Arm("fabric/link", FaultSpec::NthHit(1)).ok());
  auto failed = fabric.Migrate(dom, 0, 1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);

  // The source is back to running, the destination untouched, and frame
  // conservation holds on both hosts.
  const Domain* d = fabric.host(0).hypervisor().FindDomain(dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  EXPECT_EQ(fabric.host(0).hypervisor().NumDomains(), src_domains);
  EXPECT_EQ(fabric.host(1).hypervisor().NumDomains(), dst_domains);
  EXPECT_EQ(fabric.host(0).hypervisor().FreePoolFrames(), src_free);
  EXPECT_EQ(fabric.host(1).hypervisor().FreePoolFrames(), dst_free);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/migrations_failed"), 1u);
  ExpectClean(fabric);

  // With the fault disarmed the same migration goes through.
  fabric.fault_injector().DisarmAll();
  auto moved = fabric.Migrate(dom, 0, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  fabric.Settle();
  EXPECT_NE(fabric.host(1).hypervisor().FindDomain(*moved), nullptr);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, MigrateFaultPointRollsBackToo) {
  ClusterFabric fabric(SmallCluster(2));
  DomId dom = Boot(fabric.host(0), GuestConfig("poked", /*max_clones=*/0));
  ASSERT_TRUE(fabric.fault_injector().Arm("fabric/migrate", FaultSpec::NthHit(1)).ok());

  auto failed = fabric.Migrate(dom, 0, 1);
  ASSERT_FALSE(failed.ok());
  const Domain* d = fabric.host(0).hypervisor().FindDomain(dom);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->state, DomainState::kRunning);
  ExpectClean(fabric);
}

TEST(ClusterMigrateTest, PartitionBlocksThenRecovers) {
  ClusterFabric fabric(SmallCluster(3));
  DomId dom = Boot(fabric.host(0), GuestConfig("islander", /*max_clones=*/0));

  ASSERT_TRUE(fabric.Partition(1, true).ok());
  auto blocked = fabric.Migrate(dom, 0, 1);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fabric.host(0).hypervisor().FindDomain(dom)->state, DomainState::kRunning);
  EXPECT_GT(fabric.metrics().CounterValue("fabric/link_down_drops"), 0u);
  ExpectClean(fabric);

  // The partition only cut host 1: host 2 is still reachable.
  auto sideways = fabric.Migrate(dom, 0, 2);
  ASSERT_TRUE(sideways.ok()) << sideways.status().ToString();
  fabric.Settle();

  ASSERT_TRUE(fabric.Partition(1, false).ok());
  auto moved = fabric.Migrate(*sideways, 2, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  fabric.Settle();
  EXPECT_NE(fabric.host(1).hypervisor().FindDomain(*moved), nullptr);
  ExpectClean(fabric);
}

// ---------------------------------------------------------------------------
// Replication + placement
// ---------------------------------------------------------------------------

TEST(ClusterSchedulerTest, RegisterParentReplicatesToEveryPeer) {
  ClusterFabric fabric(SmallCluster(3));
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));

  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok()) << family.status().ToString();
  fabric.Settle();

  EXPECT_EQ(sched.replica(*family, 0), parent);
  for (std::size_t host = 1; host < 3; ++host) {
    DomId replica = sched.replica(*family, host);
    ASSERT_NE(replica, kDomInvalid) << "host " << host;
    const Domain* d = fabric.host(host).hypervisor().FindDomain(replica);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->name, "fn");
    EXPECT_TRUE(d->cloning_enabled);
  }
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/replications_total"), 2u);
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/replicas_created"), 2u);
  ExpectClean(fabric);
}

TEST(ClusterSchedulerTest, ReplicationFailureLeavesPeerIneligible) {
  ClusterConfig cfg = SmallCluster(3);
  cfg.placement = PlacementPolicy::kSpread;
  ClusterFabric fabric(cfg);
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));

  ASSERT_TRUE(fabric.SetLinkDown(0, 2, true).ok());
  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok());
  fabric.Settle();
  EXPECT_EQ(sched.replica(*family, 2), kDomInvalid);
  EXPECT_EQ(fabric.metrics().CounterValue("fabric/replications_failed"), 1u);

  // Placement routes around the replica-less host.
  std::vector<ClusterGrant> grants;
  ASSERT_TRUE(sched.Acquire(*family, 4, [&grants](Result<ClusterGrant> r) {
                     ASSERT_TRUE(r.ok()) << r.status().ToString();
                     grants.push_back(*r);
                   })
                  .ok());
  fabric.Settle();
  ASSERT_EQ(grants.size(), 4u);
  EXPECT_EQ(sched.active_on(2), 0u);
  ExpectClean(fabric);
}

// Runs one Acquire wave under `policy` and returns per-host active counts.
std::vector<std::size_t> PlaceWave(PlacementPolicy policy, unsigned children,
                                   bool fatten_host0 = false) {
  ClusterConfig cfg = SmallCluster(3);
  cfg.placement = policy;
  ClusterFabric fabric(cfg);
  if (fatten_host0) {
    // Shrink host 0's headroom so memory-aware placement avoids it.
    (void)Boot(fabric.host(0), [] {
      DomainConfig fat = GuestConfig("ballast", 0);
      fat.memory_mb = 32;
      return fat;
    }());
  }
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  EXPECT_TRUE(family.ok());
  fabric.Settle();

  unsigned granted = 0;
  EXPECT_TRUE(sched.Acquire(*family, children, [&granted](Result<ClusterGrant> r) {
                     EXPECT_TRUE(r.ok()) << r.status().ToString();
                     ++granted;
                   })
                  .ok());
  fabric.Settle();
  EXPECT_EQ(granted, children);
  ExpectClean(fabric);
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    active.push_back(sched.active_on(i));
  }
  return active;
}

TEST(ClusterSchedulerTest, PackPlacementFillsTheFirstHost) {
  EXPECT_EQ(PlaceWave(PlacementPolicy::kPack, 6),
            (std::vector<std::size_t>{6, 0, 0}));
}

TEST(ClusterSchedulerTest, SpreadPlacementBalancesHosts) {
  EXPECT_EQ(PlaceWave(PlacementPolicy::kSpread, 6),
            (std::vector<std::size_t>{2, 2, 2}));
}

TEST(ClusterSchedulerTest, MemoryAwarePlacementAvoidsThePressuredHost) {
  std::vector<std::size_t> active =
      PlaceWave(PlacementPolicy::kMemoryAware, 4, /*fatten_host0=*/true);
  EXPECT_EQ(active[0], 0u) << "children landed on the pressured host";
  EXPECT_EQ(active[1] + active[2], 4u);
}

TEST(ClusterSchedulerTest, WarmPoolServesAcrossAcquires) {
  ClusterConfig cfg = SmallCluster(2);
  cfg.placement = PlacementPolicy::kSpread;
  ClusterFabric fabric(cfg);
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok());
  fabric.Settle();

  std::vector<ClusterGrant> grants;
  auto collect = [&grants](Result<ClusterGrant> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    grants.push_back(*r);
  };
  ASSERT_TRUE(sched.Acquire(*family, 2, collect).ok());
  fabric.Settle();
  ASSERT_EQ(grants.size(), 2u);
  for (const ClusterGrant& g : grants) {
    ASSERT_TRUE(sched.Release(g).ok());
  }
  fabric.Settle();
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/released_total"), 2u);

  // The re-acquire is served from the parked children, wherever they sit.
  const std::uint64_t warm_before = fabric.metrics().CounterValue("cluster/warm_placements");
  std::vector<ClusterGrant> regrants;
  ASSERT_TRUE(sched.Acquire(*family, 2, [&regrants](Result<ClusterGrant> r) {
                     ASSERT_TRUE(r.ok()) << r.status().ToString();
                     regrants.push_back(*r);
                   })
                  .ok());
  fabric.Settle();
  ASSERT_EQ(regrants.size(), 2u);
  EXPECT_EQ(fabric.metrics().CounterValue("cluster/warm_placements"), warm_before + 2);
  ExpectClean(fabric);
}

// ---------------------------------------------------------------------------
// Cluster exports: prefixes + determinism
// ---------------------------------------------------------------------------

TEST(ClusterExportTest, HostMetricsAreTaggedFabricMetricsAreNot) {
  ClusterFabric fabric(SmallCluster(2));
  (void)Boot(fabric.host(1), GuestConfig("tagged", 0));
  const std::string merged = fabric.ExportClusterMetricsJson();
  EXPECT_NE(merged.find("\"host0/hypervisor/"), std::string::npos);
  EXPECT_NE(merged.find("\"host1/toolstack/domains_booted\""), std::string::npos);
  EXPECT_NE(merged.find("\"fabric/link_tx_bytes\""), std::string::npos);
  // Host registries themselves stay unprefixed (golden-export compatible).
  EXPECT_EQ(fabric.host(1).metrics().ExportJson().find("host1/"), std::string::npos);
}

// Every fabric-registry metric follows subsystem/metric with a fabric-level
// subsystem — the cluster counterpart of tests/metric_names_test.cc.
TEST(ClusterExportTest, FabricMetricNamesAreWellFormed) {
  ClusterFabric fabric(SmallCluster(2));
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  ASSERT_TRUE(family.ok());
  (void)fabric.Migrate(parent, 0, 0);  // exercise the failure counters too
  fabric.Settle();
  for (const std::string& name : fabric.metrics().AllNames()) {
    const std::string prefix = name.substr(0, name.find('/'));
    EXPECT_TRUE(prefix == "fabric" || prefix == "cluster" || prefix == "fault")
        << "fabric metric '" << name << "' claims unexpected subsystem '" << prefix << "'";
  }
}

struct ClusterDigest {
  std::string metrics;
  std::string tsdb;
};

// A whole little cluster lifetime: replication, a placement wave, releases,
// a warm wave, one migration, telemetry ticks. Returns the merged exports.
ClusterDigest RunClusterScenario() {
  ClusterConfig cfg = SmallCluster(3);
  cfg.placement = PlacementPolicy::kSpread;
  ClusterFabric fabric(cfg);
  std::vector<std::unique_ptr<TsdbCollector>> tsdbs;
  for (std::size_t i = 0; i < fabric.num_hosts(); ++i) {
    tsdbs.push_back(std::make_unique<TsdbCollector>(
        fabric.host(i).metrics(), fabric.loop(), fabric.host(i).config().tsdb));
  }
  ClusterScheduler sched(fabric);
  DomId parent = Boot(fabric.host(0), GuestConfig("fn"));
  auto family = sched.RegisterParent(0, parent);
  EXPECT_TRUE(family.ok());
  fabric.Settle();

  std::vector<ClusterGrant> grants;
  EXPECT_TRUE(sched.Acquire(*family, 9, [&grants](Result<ClusterGrant> r) {
                     if (r.ok()) {
                       grants.push_back(*r);
                     }
                   })
                  .ok());
  fabric.Settle();
  for (const ClusterGrant& g : grants) {
    (void)sched.Release(g);
  }
  fabric.Settle();
  grants.clear();
  EXPECT_TRUE(sched.Acquire(*family, 4, [&grants](Result<ClusterGrant> r) {
                     if (r.ok()) {
                       grants.push_back(*r);
                     }
                   })
                  .ok());
  fabric.Settle();

  DomId solo = Boot(fabric.host(0), GuestConfig("solo", 0));
  auto moved = fabric.Migrate(solo, 0, 2);
  EXPECT_TRUE(moved.ok());
  fabric.Settle();

  for (auto& tsdb : tsdbs) {
    tsdb->ScheduleTicks(3);
  }
  fabric.Settle();

  std::vector<std::pair<std::string, const TsdbCollector*>> parts;
  for (std::size_t i = 0; i < tsdbs.size(); ++i) {
    parts.emplace_back("host" + std::to_string(i), tsdbs[i].get());
  }
  return ClusterDigest{fabric.ExportClusterMetricsJson(),
                       TsdbCollector::ExportMergedJson(parts)};
}

TEST(ClusterExportTest, DigestIsByteIdenticalAcrossReruns) {
  ClusterDigest first = RunClusterScenario();
  ClusterDigest rerun = RunClusterScenario();
  EXPECT_EQ(first.metrics, rerun.metrics) << "rerun changed the metrics digest";
  EXPECT_EQ(first.tsdb, rerun.tsdb) << "rerun changed the TSDB digest";
}

}  // namespace
}  // namespace nephele
