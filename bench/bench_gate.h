// The perf-regression gate's comparison logic, header-only so tests can
// exercise it without spawning the binary (bench_gate_main.cc is a thin
// CLI over these functions).
//
// Inputs are parsed BenchJsonWriter documents (bench_json.h schema) plus a
// baseline document of the shape
//
//   {"benches": {"<bench>": <BenchJsonWriter doc>, ...}, "schema_version": 1}
//
// checked in as scripts/bench_baseline.json. The gate fails a run when
//
//   * a metric regressed past its tolerance band — kind "sim" metrics are
//     deterministic figures and get the tight band (default 1.10x); kind
//     "wall" metrics are host wall-clock and get the loose band (1.75x).
//     Direction-aware: "lower" fails above baseline * tol, "higher" fails
//     below baseline / tol.
//   * the schema drifted in EITHER direction — a metric present in the
//     baseline but missing from the current run (something stopped being
//     measured), or present in the run but missing from the baseline
//     (re-record before relying on it). Renames fail as one of each.
//   * a bench named in the baseline produced no current document (only
//     with require_all, the full-gate mode; --sim-only runs skip the
//     wall-only benches entirely).
//
// Improvements never fail the gate; they are reported as notes so a stale
// (too easy) baseline is visible in the log.

#ifndef BENCH_BENCH_GATE_H_
#define BENCH_BENCH_GATE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace nephele {

struct GateOptions {
  double sim_tolerance = 1.10;
  double wall_tolerance = 1.75;
  // Skip kind "wall" metrics (deterministic gate for ctest).
  bool sim_only = false;
  // Fail when a baseline bench has no current document (full-gate mode).
  bool require_all = false;
};

struct GateReport {
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // improvements, skips
  std::size_t metrics_checked = 0;
  // Some failure is a schema problem (malformed or drifted documents, a
  // bench missing on one side) rather than a measured regression.
  bool schema_error = false;
  bool ok() const { return failures.empty(); }

  void SchemaFailure(std::string message) {
    failures.push_back(std::move(message));
    schema_error = true;
  }

  void Print(std::FILE* out) const {
    for (const std::string& n : notes) {
      std::fprintf(out, "note: %s\n", n.c_str());
    }
    for (const std::string& f : failures) {
      std::fprintf(out, "FAIL: %s\n", f.c_str());
    }
    std::fprintf(out, "bench gate: %zu metric(s) checked, %zu failure(s)\n", metrics_checked,
                 failures.size());
  }
};

namespace gate_internal {

inline const JsonValue* MetricField(const JsonValue& metric, const char* key,
                                    const std::string& where, GateReport* report) {
  const JsonValue* v = metric.Find(key);
  if (v == nullptr) {
    report->SchemaFailure(where + ": malformed metric (missing \"" + key + "\")");
  }
  return v;
}

// One metric of one bench, already known to exist on both sides.
inline void CompareMetric(const std::string& where, const JsonValue& base,
                          const JsonValue& current, const GateOptions& opt,
                          GateReport* report) {
  const JsonValue* b_kind = MetricField(base, "kind", where, report);
  const JsonValue* c_kind = MetricField(current, "kind", where, report);
  const JsonValue* b_dir = MetricField(base, "direction", where, report);
  const JsonValue* c_dir = MetricField(current, "direction", where, report);
  const JsonValue* b_val = MetricField(base, "value_micros", where, report);
  const JsonValue* c_val = MetricField(current, "value_micros", where, report);
  if (b_kind == nullptr || c_kind == nullptr || b_dir == nullptr || c_dir == nullptr ||
      b_val == nullptr || c_val == nullptr) {
    return;
  }
  if (b_kind->string_value != c_kind->string_value ||
      b_dir->string_value != c_dir->string_value) {
    report->SchemaFailure(where + ": kind/direction changed (" + b_kind->string_value +
                               "/" + b_dir->string_value + " -> " + c_kind->string_value + "/" +
                               c_dir->string_value + "); re-record the baseline");
    return;
  }
  const bool wall = b_kind->string_value == "wall";
  if (wall && opt.sim_only) {
    report->notes.push_back(where + ": wall metric skipped (--sim-only)");
    return;
  }
  const double tol = wall ? opt.wall_tolerance : opt.sim_tolerance;
  const double base_v = b_val->number;
  const double cur_v = c_val->number;
  ++report->metrics_checked;
  char buf[256];
  if (b_dir->string_value == "lower") {
    if (cur_v > base_v * tol) {
      std::snprintf(buf, sizeof buf, "%s: regressed %.0f -> %.0f micros (limit %.0f, %.2fx band)",
                    where.c_str(), base_v, cur_v, base_v * tol, tol);
      report->failures.push_back(buf);
    } else if (base_v > 0 && cur_v * tol < base_v) {
      std::snprintf(buf, sizeof buf, "%s: improved %.0f -> %.0f micros; consider re-recording",
                    where.c_str(), base_v, cur_v);
      report->notes.push_back(buf);
    }
  } else {
    if (cur_v * tol < base_v) {
      std::snprintf(buf, sizeof buf, "%s: regressed %.0f -> %.0f micros (limit %.0f, %.2fx band)",
                    where.c_str(), base_v, cur_v, base_v / tol, tol);
      report->failures.push_back(buf);
    } else if (cur_v > base_v * tol) {
      std::snprintf(buf, sizeof buf, "%s: improved %.0f -> %.0f micros; consider re-recording",
                    where.c_str(), base_v, cur_v);
      report->notes.push_back(buf);
    }
  }
}

}  // namespace gate_internal

// Compares every current document against its baseline section.
inline GateReport GateCompare(const JsonValue& baseline, const std::vector<JsonValue>& currents,
                              const GateOptions& opt = {}) {
  GateReport report;
  const JsonValue* benches = baseline.Find("benches");
  if (benches == nullptr || !benches->is_object()) {
    report.SchemaFailure("baseline: missing \"benches\" object");
    return report;
  }
  std::set<std::string> covered;
  for (const JsonValue& current : currents) {
    const JsonValue* name_v = current.Find("bench");
    if (name_v == nullptr || !name_v->is_string()) {
      report.SchemaFailure("current document: missing \"bench\" name");
      continue;
    }
    const std::string& name = name_v->string_value;
    covered.insert(name);
    const JsonValue* base_doc = benches->Find(name);
    if (base_doc == nullptr) {
      report.SchemaFailure("bench " + name +
                                ": not in the baseline; re-record (bench_gate --record)");
      continue;
    }
    const JsonValue* base_metrics = base_doc->Find("metrics");
    const JsonValue* cur_metrics = current.Find("metrics");
    if (base_metrics == nullptr || cur_metrics == nullptr || !base_metrics->is_object() ||
        !cur_metrics->is_object()) {
      report.SchemaFailure("bench " + name + ": missing \"metrics\" object");
      continue;
    }
    // Schema drift, both directions.
    for (const auto& [metric, value] : base_metrics->members) {
      (void)value;
      if (cur_metrics->Find(metric) == nullptr) {
        report.SchemaFailure("bench " + name + ": metric " + metric +
                                  " vanished from the current run (schema drift)");
      }
    }
    for (const auto& [metric, value] : cur_metrics->members) {
      (void)value;
      if (base_metrics->Find(metric) == nullptr) {
        report.SchemaFailure("bench " + name + ": metric " + metric +
                                  " is not in the baseline (schema drift; re-record)");
      }
    }
    for (const auto& [metric, cur_m] : cur_metrics->members) {
      const JsonValue* base_m = base_metrics->Find(metric);
      if (base_m != nullptr) {
        gate_internal::CompareMetric(name + "/" + metric, *base_m, cur_m, opt, &report);
      }
    }
  }
  if (opt.require_all) {
    for (const auto& [name, doc] : benches->members) {
      (void)doc;
      if (covered.count(name) == 0) {
        report.SchemaFailure("bench " + name +
                                  ": in the baseline but produced no current document");
      }
    }
  }
  return report;
}

// Deterministic serializer for re-recording: document order preserved (the
// writer already sorts), integers emitted without a fraction.
inline std::string SerializeJson(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return v.bool_value ? "true" : "false";
    case JsonValue::Kind::kNumber: {
      const auto i = static_cast<std::int64_t>(v.number);
      if (static_cast<double>(i) == v.number) {
        return std::to_string(i);
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v.number);
      return buf;
    }
    case JsonValue::Kind::kString: {
      std::string out = "\"";
      for (char c : v.string_value) {
        if (c == '"' || c == '\\') {
          out += '\\';
        }
        out += c;
      }
      return out + "\"";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += "\"" + v.members[i].first + "\":" + SerializeJson(v.members[i].second);
      }
      return out + "}";
    }
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.elements.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += SerializeJson(v.elements[i]);
      }
      return out + "]";
    }
  }
  return "null";  // unreachable; -Werror=switch keeps the cases exhaustive
}

// Builds the new baseline document from the current runs: benches sorted by
// name, each document embedded verbatim (minus its handicap echo — a
// baseline recorded under a handicap would be a lie, so recording under
// one is rejected by the caller).
inline std::string RecordBaseline(const std::vector<JsonValue>& currents) {
  std::vector<std::pair<std::string, const JsonValue*>> sorted;
  sorted.reserve(currents.size());
  for (const JsonValue& current : currents) {
    const JsonValue* name = current.Find("bench");
    if (name != nullptr && name->is_string()) {
      sorted.emplace_back(name->string_value, &current);
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out = "{\"benches\":{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + sorted[i].first + "\":" + SerializeJson(*sorted[i].second);
  }
  out += "},\"schema_version\":1}\n";
  return out;
}

}  // namespace nephele

#endif  // BENCH_BENCH_GATE_H_
