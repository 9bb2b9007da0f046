// SystemServices: the cross-cutting service handles (metrics, tracing, fault
// injection) the toolstack, clone engine and xencloned receive at
// construction. Every member is a reference: Host (src/core/host.h) owns
// the three services and builds every component, so a component always
// records into its host's registry, traces into its host's recorder and
// registers its fault points with its host's injector.

#ifndef SRC_OBS_SERVICES_H_
#define SRC_OBS_SERVICES_H_

namespace nephele {

class MetricsRegistry;
class TraceRecorder;
class FaultInjector;

struct SystemServices {
  MetricsRegistry& metrics;
  TraceRecorder& trace;
  FaultInjector& faults;
};

}  // namespace nephele

#endif  // SRC_OBS_SERVICES_H_
