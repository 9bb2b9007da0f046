// Shared plumbing of the benchmark driver: host clocks, the span recorder of
// traced rounds, exact quantiles, registry deltas, and the per-round result
// every workload returns.
//
// The driver measures the simulator from outside. Virtual-time ("sim")
// figures come from the driver's own raw samples and from MetricsRegistry
// deltas; they are deterministic for one seed. Host ("wall") figures come
// from timing the public calls the driver makes into each layer.

#ifndef PERFBENCH_DRIVER_HARNESS_H_
#define PERFBENCH_DRIVER_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"

namespace perfbench {

inline std::int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host seconds of one pass of a fixed CPU-bound reference kernel: a small
// discrete-event loop over a heap of callbacks and an ordered map, the same
// kinds of work as the simulator. Timed before and after every round, it
// tracks the machine's current speed, so host throughput can be reported
// per reference pass as well as per second.
double ReferenceKernelSeconds();

// A well-mixed RNG seed for one input stream of a workload: distinct
// (seed, stream) pairs give unrelated streams. (Seeding SplitMix64 with
// seed * constant would make seed k+1's stream seed k's shifted by one.)
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

// Nearest-rank quantile of raw samples (q in (0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// One recorded call: a span around a public call the driver makes into a
// layer. Names are "<layer>.<call>".
struct Span {
  const char* name = "";
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
  std::int64_t sim_start_ns = 0;
  std::int64_t sim_end_ns = 0;
  std::int32_t parent = -1;  // index into the span vector, -1 for roots
  std::uint64_t op = 0;      // op id the call belongs to, 0 for set-up
};

// Keeps spans in memory for one round. Disabled tracers record nothing and
// cost one branch per call.
class Tracer {
 public:
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }
    void End();

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // The loop whose clock stamps virtual start/end times.
  void Bind(const nephele::EventLoop* loop) { loop_ = loop; }
  void SetOp(std::uint64_t op) { op_ = op; }

  Scope Begin(const char* name);

  const std::vector<Span>& spans() const { return spans_; }

  // Host-time durations (ns) of every span with this name.
  std::vector<double> DurationsNs(std::string_view name) const;
  // Per-layer self time in host seconds: each span's duration minus the
  // time its direct children cover, summed by layer (the name's prefix up
  // to the first '.').
  std::map<std::string, double> SelfSecondsByLayer() const;

  // Writes the spans as a Chrome trace-event document (opens in
  // about:tracing / Perfetto). Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t SimNow() const { return loop_ == nullptr ? 0 : loop_->Now().ns(); }

  bool enabled_;
  const nephele::EventLoop* loop_ = nullptr;
  std::uint64_t op_ = 0;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

// Counter/histogram snapshot of a registry, for before/after deltas.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, nephele::MetricsRegistry::HistogramSample> histograms;

  static RegistrySnapshot Take(const nephele::MetricsRegistry& registry);
  // Sum over several registries (a cluster's hosts plus its fabric).
  static RegistrySnapshot Take(const std::vector<const nephele::MetricsRegistry*>& registries);

  std::uint64_t Counter(const std::string& name) const;
  nephele::MetricsRegistry::HistogramSample Hist(const std::string& name) const;
};

// after - before, per name.
struct RegistryDelta {
  RegistrySnapshot before;
  RegistrySnapshot after;

  std::uint64_t Counter(const std::string& name) const {
    return after.Counter(name) - before.Counter(name);
  }
  std::uint64_t HistCount(const std::string& name) const {
    return after.Hist(name).count - before.Hist(name).count;
  }
};

// Bucket-resolution quantile of a registry histogram (upper bound of the
// bucket holding the nearest-rank sample). Used only for per-layer figures
// whose raw samples the driver cannot see (scheduler waits, service times).
double HistogramQuantile(const nephele::MetricsRegistry& registry, std::string_view name,
                         double q);

// A measured value. `samples` is the number of raw observations behind it
// (ops for a latency percentile, calls for a host timing, 1 for a gauge).
struct Value {
  double value = 0;
  std::uint64_t samples = 0;
};

// Everything one round of a workload produces.
struct RoundResult {
  // Host seconds spent building hosts, booting parents, replicating and
  // warming pools.
  double setup_s = 0;
  // Host seconds of the measured phase (ops only, no set-up or teardown).
  double measure_host_s = 0;
  // Virtual seconds the measured phase spanned.
  double measure_sim_s = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Exact per-op virtual latencies (ns), one per completed op.
  std::vector<double> op_sim_ns;

  // Virtual-time metrics, deterministic for the seed: compared byte for byte
  // across rounds. Keyed by catalog name.
  std::map<std::string, Value> sim;
  // Host-time per-layer metrics taken from traced rounds. Keyed by catalog
  // name.
  std::map<std::string, Value> wall;
  // Event-loop events run in the measured phase.
  std::uint64_t events = 0;

  // Registry exports of every system in the round, for the determinism check.
  std::string digest;
  // One line per failed output check.
  std::vector<std::string> check_failures;
  // Free-form report lines (paper anchors, notes).
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
};

// Fills the sim-kind end-to-end metrics every workload shares from the raw
// op samples: op_sim_ms_p50, op_sim_ms_p99, sim_ops_per_s, failed_ratio.
void FillCommonSim(RoundResult& round);

// Fills sim.drain_host_s and sim.host_ns_per_event from the round's
// "sim.drain" spans: the loop drains of the measured phase (traced rounds).
void FillSimLayer(RoundResult& round, const Tracer& tracer);

// Host p50 of a span name, scaled by `unit_ns` (1e3 for us, 1e6 for ms).
void PutHostP50(RoundResult& round, const Tracer& tracer, const char* metric,
                const char* span, double unit_ns);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HARNESS_H_
