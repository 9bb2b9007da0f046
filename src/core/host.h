// Host: one fully-wired virtualization host — hypervisor, Xenstore, device
// backends, toolstack, clone engine and xencloned — running on a shared
// discrete-event loop owned by the ClusterFabric (src/core/fabric.h). Every
// host keeps its own MetricsRegistry, TraceRecorder and FaultInjector, so a
// host's observable behaviour (metric names, golden exports, fault-point
// sets) is identical whether it runs alone behind the NepheleSystem facade
// or as one of N fabric peers; cluster-level exports tag each host's metrics
// with its `metrics_prefix()` ("hostN/") instead of renaming them in place.

#ifndef SRC_CORE_HOST_H_
#define SRC_CORE_HOST_H_

#include <cstddef>
#include <memory>
#include <string>

#include "src/core/clone_engine.h"
#include "src/core/xencloned.h"
#include "src/devices/device_manager.h"
#include "src/fault/fault.h"
#include "src/hypervisor/hypervisor.h"
#include "src/obs/clone_metrics.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"
#include "src/toolstack/toolstack.h"
#include "src/xenstore/store.h"

namespace nephele {

// The single source of truth for every host-side knob; Host::config()
// always reflects the settings the host runs with.
struct SystemConfig {
  HypervisorConfig hypervisor;
  CostModel costs;
  // Start xencloned (and enable cloning globally) at construction.
  bool start_xencloned = true;
  // Inert: nothing in src/, tests/, bench/ or examples/ reads or writes
  // this field, and clone batches are always staged on the simulation
  // thread. It stays only because the perfbench workloads still write it;
  // a follow-up benchmark PR removes it together with those writes.
  unsigned clone_worker_threads = 1;
  // Clone-scheduler knobs (batch window, max batch, warm-pool capacity,
  // queue depth, ...). Consumed by CloneScheduler(Host&).
  SchedulerConfig sched;
  // Lazy-clone (post-copy) knobs: prefetcher batch size, rate limit,
  // auto/manual streaming. Consumed by CloneEngine for requests with
  // CloneRequest::lazy set.
  LazyCloneConfig lazy_clone;
  // Telemetry-pipeline knobs (tick interval, ring capacity). Consumed by
  // TsdbCollector(host.metrics(), host.loop(), host.config().tsdb); like
  // the scheduler, hosts that never collect pay nothing.
  TsdbConfig tsdb;
  // Heavy-traffic request-layer knobs (arrival process, clone factor,
  // service model). Consumed by LoadGenerator(Host&) and
  // RequestCloneDispatcher(Host&, CloneScheduler&); hosts that never
  // generate load pay nothing.
  LoadConfig load;
};

class Host {
 public:
  // `loop` outlives the host; the fabric owns it. `index` names the host in
  // cluster-level exports ("host0/", "host1/", ...).
  explicit Host(EventLoop& loop, SystemConfig config = {}, std::size_t index = 0);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  EventLoop& loop() { return loop_; }
  const CostModel& costs() const { return costs_; }
  Hypervisor& hypervisor() { return *hv_; }
  const Hypervisor& hypervisor() const { return *hv_; }
  XenstoreDaemon& xenstore() { return *xs_; }
  DeviceManager& devices() { return *devices_; }
  Toolstack& toolstack() { return *toolstack_; }
  CloneEngine& clone_engine() { return *engine_; }
  Xencloned& xencloned() { return *xencloned_; }

  // This host's position in the fabric and its tag in cluster exports.
  std::size_t index() const { return index_; }
  const std::string& metrics_prefix() const { return metrics_prefix_; }

  // The host-wide observability surface: every subsystem of this host
  // records into this one registry, so MetricsRegistry::ExportJson() is the
  // whole story of a single-host run. Deterministic for a seeded scenario.
  // Names are NOT host-prefixed here — ExportMergedJson applies the prefix
  // at the cluster level, keeping single-host golden exports stable.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }

  // The host-wide deterministic fault injector. Every subsystem registers
  // its fault points here at construction; tests arm them by name (see
  // src/fault/fault.h). Fabric-level points (fabric/link, fabric/migrate)
  // live in ClusterFabric::fault_injector(), not here, so per-host fault
  // sweeps keep enumerating exactly the host-local surface.
  FaultInjector& fault_injector() { return faults_; }

  // The service bundle (metrics + trace + faults) components constructed on
  // top of this host (GuestManager, CloneScheduler, ...) should receive.
  SystemServices services() { return SystemServices{&metrics_, &trace_, &faults_}; }

  // The configuration this host was built with.
  const SystemConfig& config() const { return config_; }

  // Runs the (shared) event loop until idle.
  void Settle() { loop_.Run(); }
  SimTime Now() const { return loop_.Now(); }

 private:
  SystemConfig config_;
  CostModel costs_;
  EventLoop& loop_;
  std::size_t index_;
  std::string metrics_prefix_;
  MetricsRegistry metrics_;  // constructed before every subsystem using it
  TraceRecorder trace_{loop_};
  FaultInjector faults_{&metrics_};
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<XenstoreDaemon> xs_;
  std::unique_ptr<DeviceManager> devices_;
  std::unique_ptr<Toolstack> toolstack_;
  std::unique_ptr<CloneEngine> engine_;
  std::unique_ptr<Xencloned> xencloned_;
  std::unique_ptr<CloneMetricsObserver> clone_metrics_;
};

}  // namespace nephele

#endif  // SRC_CORE_HOST_H_
