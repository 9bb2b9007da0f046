// NepheleSystem: the single-host convenience facade — one fully-wired
// virtualization environment (hypervisor, Xenstore, device backends,
// toolstack, clone engine and xencloned) driven by a discrete-event loop.
// This remains the library's main entry point (see examples/quickstart.cc);
// since the cluster redesign it is a thin, permanent facade over a
// single-host ClusterFabric: the wired machinery lives in Host
// (src/core/host.h), the loop in the fabric (src/core/fabric.h), and every
// accessor below forwards to the one host. Components built on top take
// `Host&` and accept a NepheleSystem via the implicit conversion, so
// single-host code reads exactly as before while multi-host code constructs
// a ClusterFabric directly.

#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include "src/core/fabric.h"
#include "src/core/host.h"

namespace nephele {

class NepheleSystem {
 public:
  explicit NepheleSystem(SystemConfig config = {})
      : fabric_(MakeSingleHostConfig(std::move(config))), host_(&fabric_.host(0)) {}

  NepheleSystem(const NepheleSystem&) = delete;
  NepheleSystem& operator=(const NepheleSystem&) = delete;

  // The underlying host and its fabric. Components take Host&; the
  // conversion lets `CloneScheduler sched(system)` keep reading naturally.
  Host& host() { return *host_; }
  const Host& host() const { return *host_; }
  ClusterFabric& fabric() { return fabric_; }
  operator Host&() { return *host_; }  // NOLINT(google-explicit-constructor)

  EventLoop& loop() { return host_->loop(); }
  const CostModel& costs() const { return host_->costs(); }
  Hypervisor& hypervisor() { return host_->hypervisor(); }
  XenstoreDaemon& xenstore() { return host_->xenstore(); }
  DeviceManager& devices() { return host_->devices(); }
  Toolstack& toolstack() { return host_->toolstack(); }
  CloneEngine& clone_engine() { return host_->clone_engine(); }
  Xencloned& xencloned() { return host_->xencloned(); }

  // The system-wide observability surface: every subsystem records into the
  // host's one registry, so MetricsRegistry::ExportJson() is the whole
  // story of a run. Deterministic for a seeded scenario.
  MetricsRegistry& metrics() { return host_->metrics(); }
  const MetricsRegistry& metrics() const { return host_->metrics(); }
  TraceRecorder& trace() { return host_->trace(); }

  // The system-wide deterministic fault injector. Every subsystem registers
  // its fault points here at construction; tests arm them by name (see
  // src/fault/fault.h) to drive error paths that are otherwise unreachable.
  FaultInjector& fault_injector() { return host_->fault_injector(); }

  // The service bundle (metrics + trace + faults) components constructed on
  // top of this system (GuestManager, CloneScheduler, ...) should receive.
  SystemServices services() { return host_->services(); }

  // The configuration this system was built with.
  const SystemConfig& config() const { return host_->config(); }

  // Runs the event loop until idle.
  void Settle() { fabric_.Settle(); }
  SimTime Now() const { return fabric_.Now(); }

 private:
  static ClusterConfig MakeSingleHostConfig(SystemConfig config) {
    ClusterConfig cluster;
    cluster.hosts = 1;
    cluster.host = std::move(config);
    return cluster;
  }

  ClusterFabric fabric_;
  Host* host_;
};

}  // namespace nephele

#endif  // SRC_CORE_SYSTEM_H_
