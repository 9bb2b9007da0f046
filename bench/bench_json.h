// BenchJsonWriter: the machine-readable half of a bench binary — what
// `--json=PATH` emits and what the perf-regression gate (bench_gate.h,
// scripts/bench_gate.sh) consumes.
//
// Each metric carries three facts the gate needs to judge it:
//
//   unit        display only ("ms", "ops_per_sec", "x", "count")
//   direction   lower | higher — which way regression points
//   kind        sim  — derived from simulated time or deterministic counts;
//                      byte-identical across reruns, gated with a tight
//                      tolerance
//               wall — host wall-clock; noisy, gated with a loose tolerance
//                      and skipped entirely under --sim-only
//
// Values are serialized as fixed-point micro-units (llround(v * 1e6)) so
// documents are byte-deterministic: no printf("%g") locale or shortest-
// round-trip ambiguity. Metric names are emitted sorted.
//
// NEPHELE_BENCH_HANDICAP (a positive decimal number, default 1 when unset
// or empty; anything else exits 2 naming the value) synthetically worsens
// every WALL metric at Add() time — lower-is-better values are
// multiplied, higher-is-better divided. It exists for one purpose: the
// gate's self-test runs a bench under a 4x handicap and asserts the gate
// FAILS, proving the comparison actually bites. Sim metrics are never
// handicapped (they must stay byte-identical).

#ifndef BENCH_BENCH_JSON_H_
#define BENCH_BENCH_JSON_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

namespace nephele {

enum class MetricKind { kSim, kWall };
enum class MetricDir { kLowerIsBetter, kHigherIsBetter };

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_(std::move(bench_name)), handicap_(HandicapFromEnv()) {}

  double handicap() const { return handicap_; }

  void Add(const std::string& name, double value, const std::string& unit, MetricDir dir,
           MetricKind kind) {
    double v = value;
    if (kind == MetricKind::kWall && handicap_ != 1.0) {
      v = dir == MetricDir::kLowerIsBetter ? v * handicap_ : v / handicap_;
    }
    metrics_[name] = Metric{v, unit, dir, kind};
  }

  std::string ToJson() const {
    std::string out = "{\"bench\":\"" + bench_ + "\",";
    out += "\"handicap_micros\":" + std::to_string(ToMicros(handicap_)) + ",";
    out += "\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : metrics_) {  // std::map: sorted names
      if (!first) {
        out += ",";
      }
      first = false;
      out += "\"" + name + "\":{";
      out += std::string("\"direction\":\"") +
             (m.dir == MetricDir::kLowerIsBetter ? "lower" : "higher") + "\",";
      out += std::string("\"kind\":\"") + (m.kind == MetricKind::kSim ? "sim" : "wall") + "\",";
      out += "\"unit\":\"" + m.unit + "\",";
      out += "\"value_micros\":" + std::to_string(ToMicros(m.value)) + "}";
    }
    out += "},\"schema_version\":1}\n";
    return out;
  }

  // False (with an error message on stderr) when PATH cannot be written.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string doc = ToJson();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    return true;
  }

  static double HandicapFromEnv() {
    const char* env = std::getenv("NEPHELE_BENCH_HANDICAP");
    if (env == nullptr || *env == '\0') {
      return 1.0;
    }
    const std::string_view text(env);
    double h = 0.0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), h);
    if (ec != std::errc() || end != text.data() + text.size() || !std::isfinite(h) || h <= 0.0) {
      std::fprintf(stderr, "NEPHELE_BENCH_HANDICAP wants a positive number, got '%s'\n", env);
      std::exit(2);
    }
    return h;
  }

  static std::int64_t ToMicros(double v) {
    return static_cast<std::int64_t>(std::llround(v * 1e6));
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    MetricDir dir = MetricDir::kLowerIsBetter;
    MetricKind kind = MetricKind::kWall;
  };

  std::string bench_;
  double handicap_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace nephele

#endif  // BENCH_BENCH_JSON_H_
