// NepheleSystem: one fully-wired virtualization host (hypervisor, Xenstore,
// device backends, toolstack, clone engine and xencloned) that owns the
// discrete-event loop it runs on. This remains the library's main entry point
// (see examples/quickstart.cc). It is a Host: every accessor, and every
// component built on a host (`CloneScheduler sched(system)`,
// `GuestManager guests(system)`, ...), is Host's. Multi-host code constructs
// a ClusterFabric instead; a NepheleSystem behaves byte for byte like host 0
// of a one-host fabric.

#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include "src/core/host.h"
#include "src/sim/event_loop.h"

namespace nephele {

// The loop a NepheleSystem runs on. A base class rather than a member so it
// is constructed before, and destroyed after, the Host base that uses it.
struct OwnedEventLoop {
  EventLoop owned_loop;
};

class NepheleSystem : private OwnedEventLoop, public Host {
 public:
  explicit NepheleSystem(SystemConfig config = {}) : Host(owned_loop, std::move(config)) {}

  Host& host() { return *this; }
  const Host& host() const { return *this; }
};

}  // namespace nephele

#endif  // SRC_CORE_SYSTEM_H_
