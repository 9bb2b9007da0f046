#include "src/devices/device_manager.h"

namespace nephele {

DeviceManager::DeviceManager(Hypervisor& hv, EventLoop& loop, const CostModel& costs,
                             FaultInjector& faults)
    : loop_(loop),
      console_(loop, costs, faults),
      netback_(hv, loop, costs, faults),
      p9_(loop, costs, hostfs_, faults),
      vbd_(loop, costs, faults) {
  netback_.set_udev_emitter([this](const UdevEvent& event) { DispatchUdev(event); });
}

void DeviceManager::DispatchUdev(const UdevEvent& event) {
  // Kernel -> userspace netlink delivery; the handler runs one event later.
  loop_.Post(SimDuration::Micros(150), [this, event] {
    if (udev_handler_) {
      udev_handler_(event);
    }
  });
}

}  // namespace nephele
