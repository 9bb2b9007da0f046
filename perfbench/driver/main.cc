// perfbench_driver: runs one workload (or all four) of the Nephele benchmark
// for a fixed host-time budget and prints every metric by name, with its
// unit, clock and sample count, then one JSON result line.
//
//   perfbench_driver --workload <name|all> [--seed N] [--seconds S]
//                    [--trace 0|1] [--trace-dir DIR]
//   perfbench_driver --list-metrics | --help
//
// A run repeats complete rounds (set-up, measured phase, checks, teardown)
// at one seed until the budget is spent, at least twice. Virtual-time
// metrics must be byte-identical across the rounds; host-time metrics are
// the median over rounds. With --trace 1, untraced and traced rounds
// alternate: the traced ones give the per-layer figures and the difference
// gives obs.trace_overhead_pct. Workloads that stage clone batches in
// parallel add a third kind of round with min(4, CPUs) staging threads,
// compared with the serial untraced rounds in core.parallel_staging_x.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "driver/catalog.h"
#include "driver/harness.h"
#include "driver/workloads.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 2;  // per kind of round
// Host figures with a bound (host_ops_per_s, setup_s) are scaled to a
// nominal machine on which one reference-kernel pass takes this long — about
// its duration on the 4-CPU 2.1 GHz VM the benchmark was tuned on. Shared
// machines drift in speed by tens of percent over minutes; the reference
// pass drifts with them, so the scaled figures keep only the simulator's own
// changes. The unscaled figures are reported as *_raw.
constexpr double kNominalRefSeconds = 0.030;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

using RoundFn = RoundResult (*)(const RoundParams&, Tracer&);

RoundFn FindWorkload(const std::string& name) {
  if (name == "fork_storm") return RunForkStorm;
  if (name == "faas_requests") return RunFaasRequests;
  if (name == "nginx_datapath") return RunNginxDatapath;
  if (name == "cluster_churn") return RunClusterChurn;
  return nullptr;
}

void PrintHelp() {
  std::printf(
      "usage: perfbench_driver --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]\n"
      "                        [--trace-dir DIR]\n"
      "       perfbench_driver --list-metrics | --help\n\n"
      "Unknown flags are errors. --trace 1 prints per-layer metrics from traced rounds and\n"
      "writes the last traced round's spans to DIR/<workload>.trace.json (Chrome trace-event\n"
      "JSON).\n\nworkloads:\n");
  for (const WorkloadSpec& w : Workloads()) {
    std::printf("  %-15s %-12s %s\n", w.name, w.loop, w.why);
  }
  std::printf("\nmetrics (* = in BENCHMARK.json):\n");
  for (const MetricSpec& m : Metrics()) {
    std::printf("  %c %-32s %-6s %-5s %-9s %s%s%s\n", m.manifest ? '*' : ' ', m.name, m.unit,
                m.clock == Clock::kSim ? "sim" : "wall",
                m.kind == Kind::kEndToEnd ? "e2e" : "per-layer", m.meaning,
                m.moves[0] != '\0' ? " -> moves " : "", m.moves);
  }
}

// Strict parser: every flag must be known and carry a valid value.
bool ParseArgs(int argc, char** argv, Args* args) {
  std::vector<std::string> tokens(argv + 1, argv + argc);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::string flag = tokens[i];
    std::string value;
    bool has_value = false;
    if (auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    auto take = [&]() -> bool {
      if (has_value) {
        return true;
      }
      if (i + 1 >= tokens.size()) {
        std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
        return false;
      }
      value = tokens[++i];
      return true;
    };
    auto number = [&](double lo, double hi, double* out) -> bool {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || v < lo || v > hi) {
        std::fprintf(stderr, "error: bad value '%s' for %s\n", value.c_str(), flag.c_str());
        return false;
      }
      *out = v;
      return true;
    };
    double v = 0;
    if (flag == "--workload") {
      if (!take()) return false;
      if (value != "all" && FindWorkload(value) == nullptr) {
        std::fprintf(stderr, "error: unknown workload '%s'\n", value.c_str());
        return false;
      }
      args->workload = value;
    } else if (flag == "--seed") {
      if (!take()) return false;
      char* end = nullptr;
      errno = 0;
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "error: bad value '%s' for --seed\n", value.c_str());
        return false;
      }
    } else if (flag == "--seconds") {
      if (!take() || !number(0, 3600, &v)) return false;
      args->seconds = v;
    } else if (flag == "--trace") {
      if (!take()) return false;
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "error: --trace takes 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      if (!take()) return false;
      args->trace_dir = value;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s' (see --help)\n", tokens[i].c_str());
      return false;
    }
  }
  if (args->workload.empty()) {
    std::fprintf(stderr, "error: --workload is required (see --help)\n");
    return false;
  }
  return true;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SimFingerprint(const RoundResult& r) {
  std::string out;
  for (const auto& [name, v] : r.sim) {
    out += name + "=" + Fmt(v.value) + "/" + std::to_string(v.samples) + ";";
  }
  return out + r.digest;
}

// The outcome of one workload run: metric values by name plus accounting.
struct WorkloadOutcome {
  std::string name;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Value> metrics;
};

// The rounds of a run cycle through these kinds.
enum class RoundKind { kUntraced, kTraced, kParallel };

WorkloadOutcome RunWorkload(const std::string& name, const Args& args) {
  const RoundFn run = FindWorkload(name);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) spec = &w;
  }
  std::vector<RoundKind> cycle = {RoundKind::kUntraced};
  if (args.trace) {
    cycle.push_back(RoundKind::kTraced);
    if (spec->parallel_staging) {
      cycle.push_back(RoundKind::kParallel);
    }
  }
  const unsigned parallel_threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  WorkloadOutcome out;
  out.name = name;
  RoundResult first;
  std::string fingerprint;
  std::set<std::string> failures;
  std::vector<double> setup_s, setup_s_raw, host_ops_per_s, host_ops_per_s_raw, ref_s,
      untraced_s_per_op, traced_s_per_op, parallel_s_per_op;
  std::map<std::string, std::vector<double>> wall;
  std::map<std::string, std::uint64_t> wall_samples;
  std::map<RoundKind, int> rounds_of;
  bool deterministic = true;
  Tracer last_traced(false);  // spans of the last traced round

  const std::int64_t start = HostNowNs();
  ref_s.push_back(ReferenceKernelSeconds());
  for (int round = 0;; ++round) {
    const double elapsed = static_cast<double>(HostNowNs() - start) / 1e9;
    bool enough = true;
    for (RoundKind k : cycle) {
      enough = enough && rounds_of[k] >= kMinRounds;
    }
    if (enough && elapsed >= args.seconds) {
      break;
    }
    const RoundKind kind = cycle[static_cast<std::size_t>(round) % cycle.size()];
    ++rounds_of[kind];
    RoundParams params;
    params.seed = args.seed;
    params.staging_threads = kind == RoundKind::kParallel ? parallel_threads : 1;
    Tracer tracer(kind == RoundKind::kTraced);
    RoundResult r = run(params, tracer);
    // The machine's speed around this round: the reference passes before
    // and after it.
    const double ref_before = ref_s.back();
    ref_s.push_back(ReferenceKernelSeconds());
    const double speed = (ref_before + ref_s.back()) / 2 / kNominalRefSeconds;
    for (const std::string& f : r.check_failures) {
      failures.insert(f);
    }
    out.attempted += r.attempted;
    out.failed += r.failed;
    const double ops = static_cast<double>(r.op_sim_ns.size());
    const double s_per_op = ops > 0 ? r.measure_host_s / ops / speed : 0;
    if (round == 0) {
      fingerprint = SimFingerprint(r);
    } else if (SimFingerprint(r) != fingerprint) {
      deterministic = false;
      failures.insert("determinism: round " + std::to_string(round) +
                      " virtual-time results differ from round 0 at the same seed");
    }
    if (kind == RoundKind::kParallel) {
      parallel_s_per_op.push_back(s_per_op);
    } else if (kind == RoundKind::kTraced) {
      traced_s_per_op.push_back(s_per_op);
      for (const auto& [k, v] : r.wall) {
        wall[k].push_back(v.value);
        wall_samples[k] += v.samples;
      }
      last_traced = std::move(tracer);
    } else {
      untraced_s_per_op.push_back(s_per_op);
      setup_s_raw.push_back(r.setup_s);
      setup_s.push_back(r.setup_s / speed);
      host_ops_per_s_raw.push_back(r.measure_host_s > 0 ? ops / r.measure_host_s : 0);
      host_ops_per_s.push_back(host_ops_per_s_raw.back() * speed);
    }
    if (round == 0) {
      r.op_sim_ns.clear();
      r.op_sim_ns.shrink_to_fit();
      r.digest.clear();
      first = std::move(r);
    }
  }

  // Spans stay in memory during the run and are written once at the end.
  if (args.trace && !args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + name + ".trace.json";
    if (!last_traced.WriteChromeTrace(path)) {
      failures.insert("cannot write " + path);
    }
  }
  out.metrics = first.sim;
  const auto rounds = static_cast<std::uint64_t>(setup_s.size());
  out.metrics["host_ops_per_s"] = {Median(host_ops_per_s), rounds};
  out.metrics["host_ops_per_s_raw"] = {Median(host_ops_per_s_raw), rounds};
  out.metrics["setup_s"] = {Median(setup_s), rounds};
  out.metrics["setup_s_raw"] = {Median(setup_s_raw), rounds};
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  out.metrics["host_peak_rss_mib"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, 1};
  const double base_s_per_op = Median(untraced_s_per_op);
  if (args.trace) {
    for (const auto& [k, v] : wall) {
      out.metrics[k] = {Median(v), wall_samples[k]};
    }
    out.metrics["obs.trace_overhead_pct"] = {
        base_s_per_op > 0 ? (Median(traced_s_per_op) / base_s_per_op - 1.0) * 100.0 : 0,
        static_cast<std::uint64_t>(traced_s_per_op.size())};
  }
  if (!parallel_s_per_op.empty()) {
    out.metrics["core.parallel_staging_x"] = {
        base_s_per_op > 0 ? Median(parallel_s_per_op) / base_s_per_op : 0,
        static_cast<std::uint64_t>(parallel_s_per_op.size())};
  }

  // --- Report ---
  std::printf("== %s (%s) seed=%llu rounds=%d untraced + %d traced + %d with %u staging "
              "threads, %.1f s\n",
              name.c_str(), spec->loop, static_cast<unsigned long long>(args.seed),
              rounds_of[RoundKind::kUntraced], rounds_of[RoundKind::kTraced],
              rounds_of[RoundKind::kParallel], parallel_threads,
              static_cast<double>(HostNowNs() - start) / 1e9);
  std::printf("   why: %s\n", spec->why);
  std::printf("   reference kernel: %.6f s per pass (median of %zu, around each round)\n",
              Median(ref_s), ref_s.size());
  std::printf("   determinism: virtual-time results of every round %s\n",
              deterministic ? "byte-identical" : "DIFFER (see failures)");
  auto print_metric = [&](const MetricSpec& m) {
    auto it = out.metrics.find(m.name);
    if (it == out.metrics.end() || (m.kind == Kind::kPerLayer && it->second.samples == 0)) {
      std::printf("   %-32s %16s %-6s %-4s  (%s)\n", m.name, "n/a", m.unit,
                  m.clock == Clock::kSim ? "sim" : "wall",
                  m.kind == Kind::kPerLayer ? "layer not exercised by this workload"
                                            : "not defined for this workload");
      return;
    }
    std::printf("   %-32s %16.6f %-6s %-4s  n=%-8llu%s%s\n", m.name, it->second.value, m.unit,
                m.clock == Clock::kSim ? "sim" : "wall",
                static_cast<unsigned long long>(it->second.samples),
                m.moves[0] != '\0' ? " -> " : "", m.moves);
  };
  std::printf("   -- end to end (%s)\n",
              args.trace ? "host figures from untraced rounds" : "tracing off");
  for (const MetricSpec& m : Metrics()) {
    if (m.kind == Kind::kEndToEnd) print_metric(m);
  }
  if (args.trace) {
    std::printf("   -- per layer (traced rounds; -> the end-to-end metric it should move)\n");
    for (const MetricSpec& m : Metrics()) {
      if (m.kind == Kind::kPerLayer) print_metric(m);
    }
    std::printf("   -- host self time by layer, last traced round (span minus child spans)\n");
    for (const auto& [layer, s] : last_traced.SelfSecondsByLayer()) {
      std::printf("   %-32s %16.6f s\n", layer.c_str(), s);
    }
  }
  std::printf("   -- paper anchors\n");
  if (first.notes.empty()) {
    std::printf("   no paper reference for this workload; the model is unvalidated here\n");
  }
  for (const std::string& note : first.notes) {
    std::printf("   %s\n", note.c_str());
  }
  std::printf("   -- output checks: %s\n", failures.empty() ? "all passed" : "FAILED");
  for (const std::string& f : failures) {
    std::printf("   FAIL %s\n", f.c_str());
  }
  out.correct = failures.empty() && out.attempted > 0;
  return out;
}

void PrintJson(const std::vector<WorkloadOutcome>& outcomes, bool trace) {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const WorkloadOutcome& o : outcomes) {
    correct = correct && o.correct;
    attempted += o.attempted;
    failed += o.failed;
    const std::string prefix = outcomes.size() > 1 ? o.name + "." : "";
    for (const MetricSpec& m : Metrics()) {
      const bool wanted = m.manifest && (m.kind == Kind::kPerLayer) == trace;
      if (!wanted) continue;
      auto it = o.metrics.find(m.name);
      if (it == o.metrics.end() || it->second.samples == 0) {
        std::fprintf(stderr, "error: %s did not measure %s\n", o.name.c_str(), m.name);
        correct = false;
        continue;
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + prefix + m.name + "\": {\"value\": " + Fmt(it->second.value) +
                 ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      PrintHelp();
      return 0;
    }
    if (a == "--list-metrics") {
      for (const MetricSpec& m : Metrics()) {
        std::printf("%s %s %s %s %s\n", m.name, m.unit,
                    m.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer",
                    m.manifest ? "manifest" : "report", m.better[0] ? m.better : "-");
      }
      return 0;
    }
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  std::vector<WorkloadOutcome> outcomes;
  for (const WorkloadSpec& w : Workloads()) {
    if (args.workload == "all" || args.workload == w.name) {
      outcomes.push_back(RunWorkload(w.name, args));
    }
  }
  std::fflush(stdout);
  PrintJson(outcomes, args.trace);
  for (const WorkloadOutcome& o : outcomes) {
    if (!o.correct) return 1;
  }
  return 0;
}
