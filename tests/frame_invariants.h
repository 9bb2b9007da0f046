// Gtest shim over the reusable hypervisor invariant oracle
// (src/hypervisor/invariants.h), asserted by the fault sweep and the
// concurrency stress suite after every perturbation of a system. The real
// checks — frame conservation and refcount-vs-mapping agreement, p2m
// ownership, grant bookkeeping, evtchn connectivity — live in the library so
// the DST op-tape executor (src/dst) runs the identical oracle. Also holds
// the Dom0 side: what a domain that is gone must no longer own there.

#ifndef TESTS_FRAME_INVARIANTS_H_
#define TESTS_FRAME_INVARIANTS_H_

#include <gtest/gtest.h>

#include <string>

#include "src/core/system.h"
#include "src/hypervisor/invariants.h"
#include "src/xenstore/path.h"

namespace nephele {

// Full hypervisor state consistency against every live domain's mappings.
inline void ExpectFrameConsistency(NepheleSystem& sys) {
  EXPECT_EQ(CheckHypervisorInvariants(sys.hypervisor()), "");
}

// `dom` left no trace in Dom0: no Xenstore subtree or backend directory, no
// store connection, no vif, disk, console or serving 9pfs process, and no
// toolstack config or devices. Holds after xl destroy, a failed build and a
// second-stage abort alike.
inline void ExpectNoDom0Trace(NepheleSystem& sys, DomId dom) {
  SCOPED_TRACE("Dom0 trace of dom" + std::to_string(dom));
  const XenstoreDaemon& xs = sys.xenstore();
  EXPECT_FALSE(xs.Exists(XsDomainPath(dom)));
  EXPECT_FALSE(xs.Exists("/vm/" + std::to_string(dom)));
  EXPECT_FALSE(xs.Exists("/libxl/" + std::to_string(dom)));
  for (const char* type : {"vif", "9pfs", "vbd"}) {
    EXPECT_FALSE(xs.Exists(XsBackendPath(kDom0, type, dom, 0))) << type;
    EXPECT_FALSE(xs.Exists(XsDomainPath(kDom0) + "/backend/" + type + "/" +
                           std::to_string(dom)))
        << type;
  }
  EXPECT_FALSE(xs.DomainKnown(dom));
  DeviceManager& devices = sys.devices();
  EXPECT_EQ(devices.netback().FindVif(DeviceId{dom, DeviceType::kVif, 0}), nullptr);
  EXPECT_FALSE(devices.vbd().HasDisk(DeviceId{dom, DeviceType::kVbd, 0}));
  EXPECT_FALSE(devices.console().HasConsole(dom));
  EXPECT_EQ(devices.p9().FindServing(dom), nullptr);
  EXPECT_EQ(sys.toolstack().FindConfig(dom), nullptr);
  EXPECT_EQ(sys.toolstack().FindDevices(dom), nullptr);
}

}  // namespace nephele

#endif  // TESTS_FRAME_INVARIANTS_H_
