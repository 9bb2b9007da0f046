// The bench JSON schema, the perf-regression gate's comparison logic and the
// --json flag contract (bench/bench_json.h, bench/bench_gate.h,
// bench/bench_args.h) — exercised in-process, without spawning bench
// binaries.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_args.h"
#include "bench/bench_gate.h"
#include "bench/bench_json.h"
#include "src/obs/json.h"

namespace nephele {
namespace {

JsonValue Parse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &v, &error)) << error << "\n" << text;
  return v;
}

// Writer documents under no handicap, used as both sides of gate tests.
std::string WallDoc(const std::string& bench, double ms) {
  BenchJsonWriter w(bench);
  w.Add("op_ms", ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
  w.Add("op_per_sec", 1000.0 / ms, "ops_per_sec", MetricDir::kHigherIsBetter,
        MetricKind::kWall);
  return w.ToJson();
}

std::string SimDoc(const std::string& bench, double ms) {
  BenchJsonWriter w(bench);
  w.Add("sim_ms", ms, "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
  return w.ToJson();
}

std::string BaselineOf(const std::vector<std::string>& docs) {
  std::vector<JsonValue> parsed;
  parsed.reserve(docs.size());
  for (const std::string& d : docs) {
    parsed.push_back(Parse(d));
  }
  return RecordBaseline(parsed);
}

GateReport Gate(const std::string& baseline, const std::vector<std::string>& currents,
                GateOptions opt = {}) {
  std::vector<JsonValue> parsed;
  parsed.reserve(currents.size());
  for (const std::string& c : currents) {
    parsed.push_back(Parse(c));
  }
  return GateCompare(Parse(baseline), parsed, opt);
}

TEST(BenchJsonTest, SchemaIsExactAndSorted) {
  BenchJsonWriter w("demo");
  w.Add("zeta_ms", 1.5, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
  w.Add("alpha_count", 42.0, "count", MetricDir::kHigherIsBetter, MetricKind::kSim);
  EXPECT_EQ(w.ToJson(),
            "{\"bench\":\"demo\",\"handicap_micros\":1000000,\"metrics\":{"
            "\"alpha_count\":{\"direction\":\"higher\",\"kind\":\"sim\",\"unit\":\"count\","
            "\"value_micros\":42000000},"
            "\"zeta_ms\":{\"direction\":\"lower\",\"kind\":\"wall\",\"unit\":\"ms\","
            "\"value_micros\":1500000}"
            "},\"schema_version\":1}\n");
}

TEST(BenchJsonTest, HandicapWorsensOnlyWallMetrics) {
  ASSERT_EQ(setenv("NEPHELE_BENCH_HANDICAP", "2.0", 1), 0);
  BenchJsonWriter w("demo");
  w.Add("wall_lower_ms", 10.0, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
  w.Add("wall_higher_ops", 100.0, "ops_per_sec", MetricDir::kHigherIsBetter,
        MetricKind::kWall);
  w.Add("sim_ms", 10.0, "ms", MetricDir::kLowerIsBetter, MetricKind::kSim);
  unsetenv("NEPHELE_BENCH_HANDICAP");
  JsonValue doc = Parse(w.ToJson());
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("wall_lower_ms")->Find("value_micros")->number, 20000000.0);
  EXPECT_EQ(metrics->Find("wall_higher_ops")->Find("value_micros")->number, 50000000.0);
  EXPECT_EQ(metrics->Find("sim_ms")->Find("value_micros")->number, 10000000.0)
      << "sim metrics must never be handicapped";
}

TEST(BenchGateTest, IdenticalRunPasses) {
  std::string baseline = BaselineOf({WallDoc("micro", 10.0), SimDoc("fig", 5.0)});
  GateReport report = Gate(baseline, {WallDoc("micro", 10.0), SimDoc("fig", 5.0)});
  EXPECT_TRUE(report.ok()) << report.failures.front();
  EXPECT_EQ(report.metrics_checked, 3u);
}

TEST(BenchGateTest, WallRegressionBeyondBandFails) {
  std::string baseline = BaselineOf({WallDoc("micro", 10.0)});
  // 1.5x: inside the 1.75 band.
  EXPECT_TRUE(Gate(baseline, {WallDoc("micro", 15.0)}).ok());
  // 2x: outside — both the lower-is-better and higher-is-better twin fail.
  GateReport bad = Gate(baseline, {WallDoc("micro", 20.0)});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.failures.size(), 2u);
  // A measured regression, not a schema problem: bench_gate exits 1.
  EXPECT_FALSE(bad.schema_error);
}

TEST(BenchGateTest, SimBandIsTight) {
  std::string baseline = BaselineOf({SimDoc("fig", 100.0)});
  EXPECT_TRUE(Gate(baseline, {SimDoc("fig", 105.0)}).ok());   // 1.05x
  EXPECT_FALSE(Gate(baseline, {SimDoc("fig", 120.0)}).ok());  // 1.2x > 1.10
}

TEST(BenchGateTest, ImprovementNeverFailsButIsNoted) {
  std::string baseline = BaselineOf({WallDoc("micro", 20.0)});
  GateReport report = Gate(baseline, {WallDoc("micro", 5.0)});
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.notes.empty());
}

TEST(BenchGateTest, SchemaDriftFailsBothDirections) {
  std::string baseline = BaselineOf({WallDoc("micro", 10.0)});
  // A renamed metric vanishes from one side and appears on the other.
  BenchJsonWriter renamed("micro");
  renamed.Add("op_renamed_ms", 10.0, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
  renamed.Add("op_per_sec", 100.0, "ops_per_sec", MetricDir::kHigherIsBetter,
              MetricKind::kWall);
  GateReport report = Gate(baseline, {renamed.ToJson()});
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_NE(report.failures[0].find("vanished"), std::string::npos);
  EXPECT_NE(report.failures[1].find("not in the baseline"), std::string::npos);
  // Schema problems are told apart from regressions: bench_gate exits 2.
  EXPECT_TRUE(report.schema_error);
}

TEST(BenchGateTest, KindChangeIsSchemaDrift) {
  std::string baseline = BaselineOf({SimDoc("fig", 5.0)});
  BenchJsonWriter wall_now("fig");
  wall_now.Add("sim_ms", 5.0, "ms", MetricDir::kLowerIsBetter, MetricKind::kWall);
  GateReport report = Gate(baseline, {wall_now.ToJson()});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures.front().find("kind/direction changed"), std::string::npos);
}

TEST(BenchGateTest, SimOnlySkipsWallMetrics) {
  std::string baseline = BaselineOf({WallDoc("micro", 10.0), SimDoc("fig", 5.0)});
  GateOptions opt;
  opt.sim_only = true;
  // The wall bench regressed 10x — invisible under --sim-only.
  GateReport report = Gate(baseline, {WallDoc("micro", 100.0), SimDoc("fig", 5.0)}, opt);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.metrics_checked, 1u);
}

TEST(BenchGateTest, RequireAllFlagsUncoveredBenches) {
  std::string baseline = BaselineOf({WallDoc("micro", 10.0), SimDoc("fig", 5.0)});
  GateOptions opt;
  opt.require_all = true;
  GateReport report = Gate(baseline, {SimDoc("fig", 5.0)}, opt);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures.front().find("produced no current document"), std::string::npos);
  // Without the flag, a partial run (ctest --sim-only) is fine.
  EXPECT_TRUE(Gate(baseline, {SimDoc("fig", 5.0)}).ok());
}

TEST(BenchGateTest, UnknownBenchDemandsRerecord) {
  std::string baseline = BaselineOf({SimDoc("fig", 5.0)});
  GateReport report = Gate(baseline, {SimDoc("brand_new", 5.0)});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures.front().find("not in the baseline"), std::string::npos);
}

TEST(BenchGateTest, RecordBaselineRoundTripsDeterministically) {
  std::string baseline = BaselineOf({SimDoc("b_fig", 5.0), WallDoc("a_micro", 10.0)});
  // Serialization is canonical: parsing and re-recording is a fixed point,
  // and benches land sorted by name regardless of argument order.
  JsonValue parsed = Parse(baseline);
  const JsonValue* benches = parsed.Find("benches");
  ASSERT_NE(benches, nullptr);
  ASSERT_EQ(benches->members.size(), 2u);
  EXPECT_EQ(benches->members[0].first, "a_micro");
  EXPECT_EQ(benches->members[1].first, "b_fig");
  std::string again = BaselineOf({WallDoc("a_micro", 10.0), SimDoc("b_fig", 5.0)});
  EXPECT_EQ(baseline, again);
}

// Parses a bench command line through BenchArgs, as a bench's main() would.
BenchArgs ParseBenchArgs(std::vector<std::string> args, std::vector<std::string> allowed_flags) {
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return BenchArgs(static_cast<int>(argv.size()), argv.data(), {{"n", 7, "size"}},
                   std::move(allowed_flags));
}

TEST(BenchArgsTest, JsonToABenchThatWritesNoneExitsTwo) {
  EXPECT_EXIT(ParseBenchArgs({"bench", "--json=out.json"}, {}), ::testing::ExitedWithCode(2),
              "unknown flag --json");
  EXPECT_EXIT(ParseBenchArgs({"bench", "3", "--json=out.json"}, {"suite"}),
              ::testing::ExitedWithCode(2), "unknown flag --json");
}

// Positionals take a positive decimal integer and nothing else: a bench fed
// `abc` must not run at size 0, nor one fed `40x` at size 40.
TEST(BenchArgsTest, MalformedOrNonPositivePositionalExitsTwo) {
  for (const char* bad : {"abc", "40x", "0", "-3", "", "+5", " 4", "4.0",
                          "99999999999999999999"}) {
    SCOPED_TRACE(std::string("positional '") + bad + "'");
    EXPECT_EXIT(ParseBenchArgs({"bench", bad}, {}), ::testing::ExitedWithCode(2),
                "n wants a positive integer");
  }
  EXPECT_EQ(ParseBenchArgs({"bench", "40"}, {}).Positional("n"), 40);
}

TEST(BenchArgsTest, JsonToABenchThatWritesItNamesThePath) {
  BenchArgs args = ParseBenchArgs({"bench", "3", "--json=out.json"}, {"json"});
  EXPECT_EQ(args.json_path(), "out.json");
  EXPECT_EQ(args.Positional("n"), 3);
  EXPECT_EQ(ParseBenchArgs({"bench"}, {"json"}).json_path(), "");
}

}  // namespace
}  // namespace nephele
