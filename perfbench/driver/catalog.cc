#include "driver/catalog.h"

namespace perfbench {

namespace {

constexpr Clock kSim = Clock::kSim;
constexpr Clock kWall = Clock::kWall;
constexpr Kind kE2e = Kind::kEndToEnd;
constexpr Kind kLayer = Kind::kPerLayer;

}  // namespace

const std::vector<MetricSpec>& Metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // --- End to end. One op is the workload's unit: fork->ready,
      // arrival->first response, GET->reply or Acquire->grant. ---
      {"op_sim_ms_p50", "ms", kSim, kE2e, true, "lower", "",
       "median virtual latency per op (exact, from raw samples)"},
      {"op_sim_ms_p99", "ms", kSim, kE2e, true, "lower", "",
       "p99 virtual latency per op (exact; >= 1000 samples, so >= 10 beyond it)"},
      {"sim_ops_per_s", "1/s", kSim, kE2e, true, "higher", "",
       "ops completed per simulated second of the measured phase"},
      {"mem_mib_per_instance", "MiB", kSim, kE2e, true, "lower", "",
       "delta hypervisor/frames/allocated x 4 KiB / live instances"},
      {"host_ops_per_s", "1/s", kWall, kE2e, true, "higher", "",
       "ops per host second of the measured phase, tracing off, at nominal machine speed"},
      {"host_peak_rss_mib", "MiB", kWall, kE2e, true, "lower", "",
       "peak resident memory of the run"},
      {"setup_s", "s", kWall, kE2e, true, "lower", "",
       "host time to build hosts, boot parents, replicate and warm pools, at nominal speed"},
      {"host_ops_per_s_raw", "1/s", kWall, kE2e, false, "higher", "",
       "host_ops_per_s as measured, not scaled to nominal machine speed"},
      {"setup_s_raw", "s", kWall, kE2e, false, "lower", "",
       "setup_s as measured, not scaled to nominal machine speed"},
      {"clone_vs_boot_x", "x", kSim, kE2e, false, "higher", "",
       "boot p50 / clone p50 (fork_storm only)"},
      {"failed_ratio", "ratio", kSim, kE2e, false, "lower", "",
       "(failed + rejected + ungranted ops) / attempted"},

      // --- Per layer (traced runs). ---
      {"sim.events", "count", kSim, kLayer, true, "lower", "host_ops_per_s, all workloads",
       "events run by Run/RunUntil in the measured phase"},
      {"sim.host_ns_per_event", "ns", kWall, kLayer, true, "lower",
       "host_ops_per_s, nginx_datapath", "host time inside the loop per event"},
      {"sim.drain_host_s", "s", kWall, kLayer, true, "lower", "host_ops_per_s, all workloads",
       "host time inside Settle/Run/RunUntil in the measured phase"},
      {"core.stage1_sim_ms_p50", "ms", kSim, kLayer, false, "lower",
       "op_sim_ms_p50, fork_storm", "CLONEOP first stage, exact from clone/stage1 spans"},
      {"core.fork_host_us_p50", "us", kWall, kLayer, false, "lower",
       "host_ops_per_s, fork_storm", "synchronous GuestContext::Fork call"},
      {"core.pages_shared_per_clone", "count", kSim, kLayer, false, "",
       "mem_mib_per_instance, fork_storm", "clone/stage1/pages_shared per clone"},
      {"core.pages_copied_per_clone", "count", kSim, kLayer, false, "lower",
       "mem_mib_per_instance, fork_storm", "clone/stage1/pages_private_copied per clone"},
      {"core.reset_pages_per_reset", "count", kSim, kLayer, false, "lower",
       "op_sim_ms_p50, faas_requests", "clone/reset/pages_restored per CloneReset"},
      {"core.parallel_staging_x", "x", kWall, kLayer, false, "lower",
       "host_ops_per_s, cluster_churn",
       "host time per op with min(4, CPUs) staging threads / with 1 (WorkerPool verdict)"},
      {"core.batch_size_mean", "count", kSim, kLayer, false, "",
       "host_ops_per_s, cluster_churn", "clones per CLONEOP batch"},
      {"xencloned.stage2_sim_ms_p50", "ms", kSim, kLayer, false, "lower",
       "op_sim_ms_p50, fork_storm", "second stage, exact from clone/stage2 spans"},
      {"xencloned.stage2_sim_ms_p99", "ms", kSim, kLayer, false, "lower",
       "op_sim_ms_p99, fork_storm", "second stage p99"},
      {"xencloned.settle_host_us_p50", "us", kWall, kLayer, false, "lower",
       "host_ops_per_s, fork_storm", "the Settle after each fork"},
      {"xenstore.requests_per_clone", "count", kSim, kLayer, false, "lower",
       "op_sim_ms_p50, fork_storm", "xenstore/requests/total per clone (4 with xs_clone)"},
      {"xenstore.log_rotations", "count", kSim, kLayer, false, "lower",
       "op_sim_ms_p99, fork_storm", "access-log rotations in the measured phase"},
      {"xenstore.entries_end", "count", kSim, kLayer, true, "lower",
       "op_sim_ms_p99, fork_storm", "xenstore/entries at the end of the measured phase"},
      {"devices.clones_per_clone", "count", kSim, kLayer, false, "lower",
       "op_sim_ms_p50, fork_storm", "devices/{net,p9,console,vbd}_clone hits per clone"},
      {"hypervisor.frames_per_instance", "count", kSim, kLayer, true, "lower",
       "mem_mib_per_instance, fork_storm and cluster_churn",
       "delta allocated frames per live instance"},
      {"hypervisor.saved_by_sharing_mib", "MiB", kSim, kLayer, true, "higher",
       "mem_mib_per_instance, fork_storm", "hypervisor/frames/saved_by_sharing at the end"},
      {"hypervisor.cow_faults_per_op", "count", kSim, kLayer, true, "lower",
       "op_sim_ms_p50, faas_requests", "hypervisor/cow/faults per op"},
      {"hypervisor.hypercalls_per_op", "count", kSim, kLayer, true, "lower",
       "host_ops_per_s, all workloads", "hypervisor/hypercalls per op"},
      {"toolstack.boot_sim_ms_p50", "ms", kSim, kLayer, false, "lower",
       "clone_vs_boot_x, fork_storm", "boot arm fork->ready p50 (exact)"},
      {"toolstack.launch_host_us_p50", "us", kWall, kLayer, true, "lower",
       "host_ops_per_s, fork_storm (boot arm)",
       "GuestManager::Launch / Toolstack::CreateDomain plus its Settle"},
      {"sched.warm_hit_ratio", "ratio", kSim, kLayer, false, "higher",
       "op_sim_ms_p99, faas_requests and cluster_churn", "warm hits / (hits + misses)"},
      {"sched.wait_sim_ms_p99", "ms", kSim, kLayer, false, "lower",
       "op_sim_ms_p99, faas_requests", "sched/wait_ns p99 (bucket upper bound)"},
      {"sched.warm_grant_sim_ms_p50", "ms", kSim, kLayer, false, "lower",
       "op_sim_ms_p50, faas_requests", "sched/warm_grant_ns p50 (bucket upper bound)"},
      {"sched.rejected", "count", kSim, kLayer, false, "lower", "failed_ratio, faas_requests",
       "sched/rejected_queue_full + req/rejected"},
      {"load.submit_host_us_p50", "us", kWall, kLayer, false, "lower",
       "host_ops_per_s, faas_requests", "RequestCloneDispatcher::Submit"},
      {"load.cancelled_per_win", "count", kSim, kLayer, false, "lower",
       "sim_ops_per_s, faas_requests", "req/cancelled per req/wins (wasted duplicates)"},
      {"load.service_sim_ms_p50", "ms", kSim, kLayer, false, "lower",
       "op_sim_ms_p50, faas_requests", "req/service_ns p50 (bucket upper bound)"},
      {"net.inject_host_ns_p50", "ns", kWall, kLayer, false, "lower",
       "host_ops_per_s, nginx_datapath", "synchronous part of Bond::InjectFromUplink"},
      {"net.retransmits", "count", kSim, kLayer, false, "lower",
       "op_sim_ms_p99, nginx_datapath",
       "client GET retransmissions after an RTO (guest RX ring overflow drops)"},
      {"net.packets_per_op", "count", kSim, kLayer, false, "lower",
       "host_ops_per_s, nginx_datapath", "uplink packets in and out per op"},
      {"net.fabric_tx_bytes", "B", kSim, kLayer, false, "lower",
       "op_sim_ms_p99 and setup_s, cluster_churn", "fabric/link_tx_bytes in the measured phase"},
      {"net.migration_sim_ms_p50", "ms", kSim, kLayer, false, "lower",
       "op_sim_ms_p99 and setup_s, cluster_churn", "ClusterFabric::Migrate virtual time"},
      {"cluster.acquire_host_us_p50", "us", kWall, kLayer, false, "lower",
       "host_ops_per_s, cluster_churn", "ClusterScheduler::Acquire"},
      {"cluster.migrate_host_ms_p50", "ms", kWall, kLayer, false, "lower",
       "host_ops_per_s, cluster_churn", "ClusterFabric::Migrate"},
      {"cluster.placement_skew", "ratio", kSim, kLayer, false, "lower",
       "op_sim_ms_p99, cluster_churn", "max / min active children per host"},
      {"cluster.warm_placements", "count", kSim, kLayer, false, "higher",
       "op_sim_ms_p99, cluster_churn", "cluster/warm_placements in the measured phase"},
      {"obs.trace_overhead_pct", "%", kWall, kLayer, true, "lower", "(observability cost)",
       "traced vs untraced host time per op, same process"},
  };
  return kMetrics;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"fork_storm", "sequential",
       "the paper's Fig. 4/5 clone path; core, xencloned, xenstore, devices and the "
       "hypervisor tables do the work",
       false},
      {"faas_requests", "open loop",
       "Poisson requests through the d=2 dispatcher at utilisation 0.60; warm-pool resets "
       "dominate, fresh clones only on misses",
       false},
      {"nginx_datapath", "closed loop",
       "4 cloned NGINX workers behind the bond; no clone after set-up, so the event loop "
       "and the net datapath dominate",
       false},
      {"cluster_churn", "cycles",
       "4-host fabric: placement waves, warm re-acquires and ring migrations; batched "
       "staging and the unpause scan",
       true},
  };
  return kWorkloads;
}

}  // namespace perfbench
