#include "src/core/host.h"

namespace nephele {

Host::Host(EventLoop& loop, SystemConfig config, std::size_t index)
    : config_(std::move(config)),
      costs_(config_.costs),
      loop_(loop),
      index_(index),
      metrics_prefix_("host" + std::to_string(index) + "/") {
  hv_ = std::make_unique<Hypervisor>(loop_, costs_, config_.hypervisor, &metrics_, &faults_);
  xs_ = std::make_unique<XenstoreDaemon>(loop_, costs_, &metrics_, &faults_);
  devices_ = std::make_unique<DeviceManager>(*hv_, *xs_, loop_, costs_, &faults_);
  toolstack_ = std::make_unique<Toolstack>(*hv_, *xs_, *devices_, loop_, costs_, services());
  engine_ = std::make_unique<CloneEngine>(*hv_, services());
  engine_->SetLazyConfig(config_.lazy_clone);
  xencloned_ = std::make_unique<Xencloned>(*hv_, *engine_, *xs_, *devices_, *toolstack_, loop_,
                                           costs_, services());

  // The metrics layer subscribes to the clone path like any other observer.
  clone_metrics_ = std::make_unique<CloneMetricsObserver>(metrics_, loop_);
  engine_->AddObserver(clone_metrics_.get());

  // Route udev events: devices of clones are completed by xencloned, freshly
  // booted ones by the toolstack hotplug scripts.
  devices_->SetUdevHandler([this](const UdevEvent& event) {
    const Domain* d = hv_->FindDomain(event.device.dom);
    if (d != nullptr && d->parent != kDomInvalid) {
      xencloned_->HandleUdev(event);
    } else {
      (void)toolstack_->HandleVifHotplug(event);
    }
  });

  if (config_.start_xencloned) {
    (void)xencloned_->Start();
  }
}

}  // namespace nephele
