// The xl/libxl/libxc analogue: boots, saves, restores and destroys domains,
// runs the split-device negotiation, owns the guest-side frontend objects and
// the Dom0 memory accounting used by the Fig. 5 experiment.

#ifndef SRC_TOOLSTACK_TOOLSTACK_H_
#define SRC_TOOLSTACK_TOOLSTACK_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/devices/device_manager.h"
#include "src/hypervisor/hypervisor.h"
#include "src/net/switch.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/obs/trace.h"
#include "src/toolstack/domain_config.h"
#include "src/xenstore/path.h"
#include "src/xenstore/store.h"

namespace nephele {

// Guest-side device endpoints of one domain. Owned by the toolstack layer in
// this simulation (on real Xen they live inside the guest); the guest
// runtime borrows them.
struct GuestDevices {
  std::unique_ptr<NetFrontend> net;
  P9BackendProcess* p9 = nullptr;          // backend process serving this guest
  std::uint32_t p9_root_fid = 0;
  std::unique_ptr<VbdFrontend> vbd;
};

// A saved domain image (xl save analogue).
struct DomainImage {
  DomainConfig config;
  std::size_t pages = 0;  // full allocation is serialized (Sec. 6.1)
};

// A live-migration stream (xl migrate analogue): the p2m-ordered page
// contents plus config, shipped to the target host. Only pages that were
// ever written are carried explicitly; the rest are zero.
struct MigrationStream {
  DomainConfig config;
  std::size_t pages = 0;
  std::map<Gfn, std::vector<std::uint8_t>> written_pages;
};

// The Xenstore records every fresh domain gets (name, domid, console,
// store, /vm and /libxl), as (path, value) in write order. xl create,
// restore and migrate-in write them one request each; so does xencloned's
// per-entry deep-copy ablation.
std::vector<std::pair<std::string, std::string>> BaseXenstoreEntries(DomId dom,
                                                                     const std::string& name);

// One xenbus split device: the config flag that gives a domain one, and the
// xs_clone flavour of its directories. Device 0 of a domain lives at
// <domain>/device/<name>/0 (frontend) and Dom0's backend/<name>/<dom>/0.
struct SplitDevice {
  DeviceType type;
  bool DomainConfig::*enabled;
  XsCloneOp clone_op;

  bool In(const DomainConfig& config) const { return config.*enabled; }
  std::string FrontendPath(DomId dom) const {
    return XsFrontendPath(dom, DeviceTypeName(type), 0);
  }
  std::string BackendPath(DomId dom) const {
    return XsBackendPath(kDom0, DeviceTypeName(type), dom, 0);
  }
  // Dom0's backend/<name>/<dom>: the parent of BackendPath, holding every
  // backend of this type that serves `dom`.
  std::string BackendDomainDir(DomId dom) const {
    std::string path = BackendPath(dom);
    path.resize(path.rfind('/'));
    return path;
  }
};

// The split devices in boot order. Code that only cares about a device's
// Xenstore directories (xs_clone, the deep copy, teardown) loops over it.
inline constexpr SplitDevice kSplitDevices[] = {
    {DeviceType::kVif, &DomainConfig::with_vif, XsCloneOp::kDevVif},
    {DeviceType::kP9fs, &DomainConfig::with_p9fs, XsCloneOp::kDev9pfs},
    {DeviceType::kVbd, &DomainConfig::with_vbd, XsCloneOp::kDevVbd},
};

class Toolstack {
 public:
  // Records into services.metrics, traces boots into services.trace and
  // registers the boot fault point with services.faults.
  Toolstack(Hypervisor& hv, XenstoreDaemon& xs, DeviceManager& devices, EventLoop& loop,
            const CostModel& costs, const SystemServices& services);

  // Where new vifs are attached. Defaults to an internal Bridge; the Fig. 4
  // and Fig. 7 setups install a Bond instead.
  void SetDefaultSwitch(HostSwitch* sw) { default_switch_ = sw; }
  HostSwitch* default_switch() { return default_switch_; }

  // xl create: the full boot path. Returns with the domain running (the
  // guest app itself starts through the runtime's boot event).
  Result<DomId> CreateDomain(const DomainConfig& config);

  // xl save / restore.
  Result<DomainImage> SaveDomain(DomId dom);
  Result<DomId> RestoreDomain(const DomainImage& image);

  // xl destroy.
  Status DestroyDomain(DomId dom);

  // The one Dom0 teardown: best-effort removal of everything Dom0 holds for
  // `dom` (vif, 9pfs, vbd, console, its Xenstore subtrees and backend
  // directories, its store connection), whatever part of it exists. Leaves
  // the domain itself and the toolstack's registry alone. DestroyDomain, a
  // failed build and xencloned's second-stage abort all run it.
  void TearDownDom0State(DomId dom, const DomainConfig& config);

  // xl migrate --live: pre-copy emigration. Round 0 ships every page while
  // the guest keeps running under log-dirty; each further round re-ships
  // what the guest dirtied meanwhile (`between_rounds` lets callers drive
  // guest activity between rounds, standing in for concurrently running
  // vCPUs); the final stop-and-copy round happens paused — its duration is
  // the downtime. Same family restriction as MigrateOut.
  struct LiveMigrationStats {
    unsigned precopy_rounds = 0;
    std::size_t pages_shipped = 0;
    SimDuration downtime;
  };
  Result<MigrationStream> MigrateOutLive(DomId dom, unsigned max_rounds,
                                         std::function<void()> between_rounds,
                                         LiveMigrationStats* stats);

  // xl migrate: stop-and-copy emigration. Serializes the guest's pages in
  // p2m order and destroys the source domain. Refused with a typed
  // kFailedPrecondition naming the blocking relatives for domains with
  // living family relations — migrating a clone "would break the page
  // sharing potential" (Sec. 8). Equivalent to BeginMigrateOut +
  // CompleteMigrateOut back to back.
  Result<MigrationStream> MigrateOut(DomId dom);

  // First-class two-phase emigration, the RWTH-OS migration-framework shape
  // the ClusterFabric drives: Begin pauses the source and serializes its
  // pages (same checks, costs and stream as MigrateOut) but leaves the
  // domain intact so a failed transfer can roll back. Exactly one of
  // Complete (destroys the source — the copy landed) or Abort (resumes the
  // source as if nothing happened) must follow.
  Result<MigrationStream> BeginMigrateOut(DomId dom);
  Status CompleteMigrateOut(DomId dom);
  Status AbortMigrateOut(DomId dom);

  // Serializes a domain WITHOUT emigrating it: pause, snapshot, resume.
  // Family relations are allowed — the source keeps its sharing intact and
  // only the copy travels; the fabric's parent-image replication is built
  // on this. Not-present p2m entries (mid-stream lazy clones) ship as
  // zero pages.
  Result<MigrationStream> SnapshotDomain(DomId dom);

  // Immigration on the target host: rebuilds memory from the stream, then
  // rebuilds the page tables from the p2m (Sec. 5.2's stated purpose of the
  // p2m map) and reconnects devices.
  Result<DomId> MigrateIn(const MigrationStream& stream);

  Status PauseDomain(DomId dom) { return hv_.PauseDomain(dom); }
  Status UnpauseDomain(DomId dom) { return hv_.UnpauseDomain(dom); }

  GuestDevices* FindDevices(DomId dom);
  const DomainConfig* FindConfig(DomId dom) const;
  std::vector<DomId> RunningDomains() const;

  // Registers clone-side bookkeeping for a domain created by the clone
  // engine (called by xencloned, not by users).
  void AdoptClonedDomain(DomId child, const DomainConfig& config, GuestDevices devices);

  // Boot-time vif hotplug: udev event -> attach to switch + hotplug-status.
  // Public because xencloned reuses it for clone events.
  Status HandleVifHotplug(const UdevEvent& event);

  // The uniqueness scan vanilla xl performs on the configured name; disabled
  // by default to match the paper's Fig. 4 methodology (names are generated
  // unique; see Sec. 6.1). Enable for the LightVM-style ablation.
  void SetNameCheckEnabled(bool enabled) { name_check_enabled_ = enabled; }

  // --- Dom0 memory accounting (Fig. 5). ---
  // The experiment splits 16 GiB into 4 GiB Dom0 + 12 GiB hypervisor pool.
  static constexpr std::size_t kDom0TotalBytes = 4ull * kGiB;
  // Kernel + Xen services + oxenstored baseline resident set.
  static constexpr std::size_t kDom0BaseServicesBytes = 600ull * kMiB;
  static constexpr std::size_t kDom0BytesPerDomainBookkeeping = 26 * 1024;
  std::size_t Dom0FreeBytes() const;

 private:
  // What a build puts into the freshly populated physmap: the image load of
  // xl create and restore, the page replay of migrate-in.
  using LoadStep = std::function<Status(DomId)>;

  // The one domain build of xl create, restore and migrate-in: create the
  // domain, populate its physmap, run `load`, build page tables, set the
  // clone config, introduce it to Xenstore with the base entries, then
  // console, vif, 9pfs and vbd; register and unpause it. A failure at any
  // step runs TearDownDom0State and destroys the domain.
  Result<DomId> BuildDomain(const DomainConfig& config, const LoadStep& load);
  // The fallible body of BuildDomain, between create and register.
  Status SetUpDomain(DomId dom, const DomainConfig& config, const LoadStep& load,
                     GuestDevices& devices);
  // Stage 1 of a xenbus negotiation: seeds the frontend directory (backend
  // link, `fe_keys`, state) and the backend directory (frontend link,
  // `be_keys`, state), both Initialising, one write request per key.
  using XsKeys = std::initializer_list<std::pair<const char*, std::string>>;
  void SeedDeviceDirs(DomId dom, const std::string& fe_path, const std::string& be_path,
                      XsKeys fe_keys, XsKeys be_keys);
  Status SetupVif(DomId dom, const DomainConfig& config, GuestDevices& devices);
  Status SetupP9(DomId dom, const DomainConfig& config, GuestDevices& devices);
  Status SetupVbd(DomId dom, const DomainConfig& config, GuestDevices& devices);
  // The domain and its config, or kNotFound ("no such domain" / "domain
  // not managed by toolstack") for save, migrate-out and snapshot.
  Result<std::pair<Domain*, const DomainConfig*>> FindManaged(DomId dom);
  // The typed Sec. 8 refusal: kFailedPrecondition naming every blocking
  // relative (parent and children, with names and domids).
  Status RefuseFamilyMigration(const Domain& d);
  // Charges one page of the stream and ships its contents into `stream` if
  // it is materialised; returns whether it was (otherwise the page reads
  // as zero on the target).
  bool ShipPage(const Domain& d, Gfn gfn, MigrationStream& stream);
  // Shared stop-and-copy serializer of BeginMigrateOut and SnapshotDomain.
  MigrationStream SerializePages(const Domain& d, const DomainConfig& config);

  // Auto-assigned guest addressing.
  MacAddr NextMac() { return 0x00163e000000ULL + next_mac_suffix_++; }
  Ipv4Addr NextIp() { return MakeIpv4(10, 8, 0, 2) + next_ip_suffix_++; }

  Hypervisor& hv_;
  XenstoreDaemon& xs_;
  DeviceManager& devices_;
  EventLoop& loop_;
  const CostModel& costs_;

  TraceRecorder& trace_;
  Counter& m_domains_booted_;
  Counter& m_domains_restored_;
  Counter& m_domains_destroyed_;
  Histogram& m_boot_ns_;
  Histogram& m_restore_ns_;
  FaultPoint* f_create_domain_;

  Bridge builtin_bridge_;
  HostSwitch* default_switch_;

  std::map<DomId, GuestDevices> guest_devices_;
  std::map<DomId, DomainConfig> configs_;
  // Domains sitting paused between BeginMigrateOut and Complete/Abort;
  // the value records whether the domain was running before Begin paused
  // it, so Abort restores the exact prior state.
  std::map<DomId, bool> pending_emigrations_;
  bool name_check_enabled_ = false;
  std::uint64_t next_mac_suffix_ = 1;
  std::uint32_t next_ip_suffix_ = 0;
};

}  // namespace nephele

#endif  // SRC_TOOLSTACK_TOOLSTACK_H_
