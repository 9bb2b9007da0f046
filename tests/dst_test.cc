// The deterministic-simulation-testing suite (label: dst).
//
// Drives the src/dst op-tape engine end to end: the tape codec, reference
// model unit checks, corpus replay (tests/dst_corpus) with digest
// determinism across reruns, coverage-guided rounds with the full oracle
// after every op — NEPHELE_DST_ROUNDS overrides the default 400 (0 skips, a
// malformed value fails; the sanitizer leg of scripts/check.sh uses 40) — and
// seeded-bug proofs that the oracle catches deliberate defects and the
// shrinker minimises them.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "src/core/system.h"
#include "src/dst/ddmin.h"
#include "src/dst/executor.h"
#include "src/dst/fuzzer.h"
#include "src/dst/reference_model.h"
#include "src/dst/tape.h"
#include "src/sim/rng.h"

namespace nephele {
namespace {

Tape MustParse(const std::string& text) {
  auto parsed = Tape::FromText(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : Tape{};
}

// ---------------------------------------------------------------------------
// Tape codec.
// ---------------------------------------------------------------------------

TEST(DstScenarioTest, TextRoundTripsEveryOpKind) {
  // Decoded tapes set exactly the operands each kind reads; gather them
  // until every kind appears, then add the operand shapes the decoder never
  // draws (a probability fault spec, a worker override, a custom pool).
  Tape tape;
  tape.seed = 42;
  tape.pool_frames = 9000;
  std::set<OpKind> seen;
  for (std::uint64_t seed = 1; seen.size() < kNumOpKinds && seed < 500; ++seed) {
    for (Op& op : TapeFromBytes(seed, {}).ops) {
      if (seen.insert(op.kind).second) {
        tape.ops.push_back(std::move(op));
      }
    }
  }
  ASSERT_EQ(seen.size(), kNumOpKinds);
  Op arm;
  arm.kind = OpKind::kArm;
  arm.point = "xenstore/request";
  arm.spec = FaultSpec::WithProbability(0.25, 99);
  tape.ops.push_back(arm);
  Op clone;
  clone.kind = OpKind::kLazyClone;
  clone.a = 4;
  clone.c = 5;
  clone.n = 3;
  tape.ops.push_back(clone);

  const std::string text = tape.ToText();
  Tape reparsed = MustParse(text);
  EXPECT_EQ(tape, reparsed);
  // Encoding is canonical: a second round trip is byte-identical.
  EXPECT_EQ(text, reparsed.ToText());
}

TEST(DstScenarioTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(Tape::FromText("").ok());                          // no seed line
  EXPECT_FALSE(Tape::FromText("launch\n").ok());                  // op before seed
  EXPECT_FALSE(Tape::FromText("seed x\n").ok());                  // bad seed
  EXPECT_FALSE(Tape::FromText("seed 1\nwarp a=1\n").ok());        // unknown op
  EXPECT_FALSE(Tape::FromText("seed 1\nclone a\n").ok());         // not key=value
  EXPECT_FALSE(Tape::FromText("seed 1\nclone q=1\n").ok());       // unknown field
  EXPECT_FALSE(Tape::FromText("seed 1\nclone a=beef\n").ok());    // non-numeric
  EXPECT_FALSE(Tape::FromText("seed 1\nlaunch a=4\n").ok());      // operand the op ignores
  EXPECT_FALSE(Tape::FromText("seed 1\nlazytouch n=1\n").ok());   // operand the op ignores
  EXPECT_FALSE(Tape::FromText("seed 1\narm nth=2\n").ok());       // missing point=
  EXPECT_FALSE(Tape::FromText("seed 1\narm point=x p=2\n").ok()); // probability > 1
  EXPECT_FALSE(Tape::FromText("seed 1\nlaunch\npool_frames 9\n").ok());  // header after ops
}

TEST(DstScenarioTest, TapeDecodingIsPure) {
  std::vector<std::uint8_t> bytes = {7, 13, 255, 0, 42, 99, 1, 2, 3};
  Tape a = TapeFromBytes(123, bytes);
  Tape b = TapeFromBytes(123, bytes);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.ops.empty());
  EXPECT_EQ(a.ops[0].kind, OpKind::kLaunch);
  // A different seed re-derives the fallback stream: tapes diverge.
  EXPECT_FALSE(a == TapeFromBytes(124, bytes));
  // Any byte string decodes; empty relies purely on the fallback stream.
  Tape empty = TapeFromBytes(3, {});
  EXPECT_EQ(empty, TapeFromBytes(3, {}));
  EXPECT_GE(empty.ops.size(), 6u);
}

TEST(HvTapeTest, TextRoundTripsEveryOpKind) {
  // One op per kind, in OpKind order, with every operand the kind reads set
  // to its extreme value — the decoder only ever draws small ones. Which
  // operands a kind reads is probed through the strict parser itself.
  Tape tape;
  tape.seed = std::numeric_limits<std::uint64_t>::max();
  tape.pool_frames = 1;
  constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  const std::pair<const char*, std::uint32_t Op::*> kFields[] = {
      {"a", &Op::a}, {"b", &Op::b},         {"c", &Op::c},
      {"n", &Op::n}, {"v", &Op::v},         {"flags", &Op::flags},
  };
  for (std::size_t i = 0; i < kNumOpKinds; ++i) {
    Op op;
    op.kind = static_cast<OpKind>(i);
    const std::string name = OpKindName(op.kind);
    auto accepts = [&name](const std::string& field) {
      return Tape::FromText("seed 1\n" + name + " " + field + "\n").ok();
    };
    for (const auto& [key, member] : kFields) {
      if (accepts(std::string(key) + "=1")) {
        op.*member = kMax32 - static_cast<std::uint32_t>(i);
      }
    }
    if (accepts("amount=1")) {
      op.amount = std::numeric_limits<std::uint64_t>::max() - i;
    }
    if (accepts("point=x")) {
      op.point = "hypervisor/frame_alloc";
      op.spec = FaultSpec::NthHit(1 + i);
    }
    tape.ops.push_back(op);
  }
  // The probe found something to set on the operand-carrying kinds.
  EXPECT_EQ(tape.ops[static_cast<std::size_t>(OpKind::kP9)].n, kMax32 - 26);
  EXPECT_EQ(tape.ops[static_cast<std::size_t>(OpKind::kAdvance)].amount,
            std::numeric_limits<std::uint64_t>::max() - 14);
  EXPECT_EQ(tape.ops[static_cast<std::size_t>(OpKind::kArm)].point, "hypervisor/frame_alloc");
  EXPECT_EQ(tape.ops[static_cast<std::size_t>(OpKind::kLaunch)], Op{});

  auto parsed = Tape::FromText(tape.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, tape);
}

TEST(HvTapeTest, ParserRejectsMalformedInput) {
  // The hostile vocabulary gets the same strictness as the well-formed one.
  EXPECT_TRUE(Tape::FromText("seed 1\ngrant a=1 b=2 c=3 flags=1\n").ok());  // control
  EXPECT_FALSE(Tape::FromText("seed 1\ngrant n=2\n").ok());         // operand the op ignores
  EXPECT_FALSE(Tape::FromText("seed 1\nclone workers=4\n").ok());   // retired operand
  EXPECT_FALSE(Tape::FromText("seed 1\nevsend amount=5\n").ok());   // operand the op ignores
  EXPECT_FALSE(Tape::FromText("seed 1\nsettle a=1\n").ok());        // operand the op ignores
  EXPECT_FALSE(Tape::FromText("seed 1\np9 point=x\n").ok());        // fault field off arm
  EXPECT_FALSE(Tape::FromText("seed 1\nmap a=1 c=\n").ok());        // empty value
  EXPECT_FALSE(Tape::FromText("seed 1\nrawwrite v=-1\n").ok());     // negative value
  EXPECT_FALSE(Tape::FromText("seed 1\nEVALLOC\n").ok());           // names are lower case
  EXPECT_FALSE(Tape::FromText("seed 1\narm point=x p=0.5x\n").ok());  // trailing junk
  EXPECT_FALSE(Tape::FromText("seed 1\npool_frames\n").ok());       // header without value
  EXPECT_FALSE(Tape::FromText("seed 1\npool_frames 0\n").ok());     // empty pool
  EXPECT_FALSE(Tape::FromText("seed 1\nmap a=4294967296\n").ok());  // 32-bit operand overflow
  EXPECT_FALSE(Tape::FromText("seed 1\nclone n=4294967296\n").ok());
  EXPECT_TRUE(Tape::FromText("seed 1\nmap a=4294967295\n").ok());   // 2^32-1 still fits
  EXPECT_FALSE(Tape::FromText("seed 18446744073709551616\n").ok());  // 64-bit overflow
  EXPECT_FALSE(Tape::FromText("seed 1\nadvance amount=99999999999999999999\n").ok());
  EXPECT_TRUE(Tape::FromText("seed 18446744073709551615\n").ok());   // 2^64-1 still fits
}

TEST(HvTapeTest, DecoderIsTotalAndPure) {
  // Every single byte and a spread of random strings decode; each tape is a
  // function of (seed, bytes), opens with a launch, stays inside the op-count
  // bounds, and survives the strict text codec unchanged — the decoder only
  // sets operands the op kind reads.
  std::vector<std::vector<std::uint8_t>> inputs = {{}};
  for (int b = 0; b < 256; ++b) {
    inputs.push_back({static_cast<std::uint8_t>(b)});
  }
  Rng rng(0xdecade);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> bytes(rng.NextBelow(65));
    for (std::uint8_t& byte : bytes) {
      byte = static_cast<std::uint8_t>(rng.NextU64());
    }
    inputs.push_back(std::move(bytes));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tape tape = TapeFromBytes(i, inputs[i]);
    EXPECT_EQ(tape, TapeFromBytes(i, inputs[i])) << "input " << i;
    ASSERT_GE(tape.ops.size(), 6u) << "input " << i;
    EXPECT_LE(tape.ops.size(), 31u) << "input " << i;
    EXPECT_EQ(tape.ops[0].kind, OpKind::kLaunch) << "input " << i;
    for (const Op& op : tape.ops) {
      EXPECT_LT(static_cast<std::size_t>(op.kind), kNumOpKinds) << "input " << i;
    }
    auto parsed = Tape::FromText(tape.ToText());
    ASSERT_TRUE(parsed.ok()) << "input " << i << ": " << parsed.status().ToString();
    EXPECT_EQ(*parsed, tape) << "input " << i;
  }
}

// ---------------------------------------------------------------------------
// Reference model unit checks.
// ---------------------------------------------------------------------------

TEST(DstModelTest, ResetRestoresParentCurrentContentAndCountsDuplicates) {
  ReferenceModel model;
  model.Launch(1);
  model.Write(1, 0, 10);
  model.CloneBatchPlanned(1, 1);
  model.CloneChild(1, 2, /*lazy=*/false);
  // Child dirties slot 0's page, parent then moves on.
  model.Write(2, 0, 99);
  model.Write(1, 0, 77);
  // The duplicate comes from clone->write->clone->write on the same page.
  model.CloneBatchPlanned(2, 1);
  model.CloneChild(2, 3, /*lazy=*/false);
  model.Write(2, 1, 5);  // same page as slot 0, re-dirties after re-share
  EXPECT_EQ(model.Reset(2), 2u);  // page 0 appears twice on the dirty list
  // Reset copied the parent's *current* cells: slot 0 is 77, not 10.
  EXPECT_EQ(model.Find(2)->cells[0], 77);
  EXPECT_TRUE(model.Find(2)->dirty.empty());

  // A hostile op taints the dirty list: the next reset cannot be predicted,
  // and the one after it is exact again.
  model.Write(2, 4, 6);
  model.Taint(2);
  EXPECT_EQ(model.Reset(2), std::nullopt);
  EXPECT_EQ(model.Reset(2), 0u);
}

TEST(DstModelTest, DestroyReparentsToGrandparent) {
  ReferenceModel model;
  model.Launch(1);
  model.CloneBatchPlanned(1, 1);
  model.CloneChild(1, 2, /*lazy=*/false);
  model.CloneBatchPlanned(2, 1);
  model.CloneChild(2, 3, /*lazy=*/false);
  model.Destroy(2);
  EXPECT_EQ(model.Find(3)->parent, 1u);
  model.Destroy(1);
  EXPECT_EQ(model.Find(3)->parent, kDomInvalid);
  EXPECT_FALSE(model.CanReset(3));
}

// ---------------------------------------------------------------------------
// Corpus replay.
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, Tape>> LoadCorpus() {
  std::vector<std::pair<std::string, Tape>> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(NEPHELE_DST_CORPUS_DIR)) {
    if (entry.path().extension() != ".tape") {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    auto tape = Tape::FromText(buf.str());
    EXPECT_TRUE(tape.ok()) << entry.path() << ": " << tape.status().ToString();
    if (tape.ok()) {
      corpus.emplace_back(entry.path().filename().string(), *std::move(tape));
    }
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return corpus;
}

// The corpus holds two kinds of tape: hand-written scenarios, and
// regression_*.tape — bugs the fuzzer or the generated rounds found, shrunk
// and pinned. Each replay test takes one kind; together they cover every
// file. Returns how many tapes it replayed.
std::size_t ReplayCorpus(bool regressions) {
  const auto corpus = LoadCorpus();
  EXPECT_GE(corpus.size(), 34u) << "corpus went missing from " << NEPHELE_DST_CORPUS_DIR;
  std::size_t replayed = 0;
  for (const auto& [name, tape] : corpus) {
    if ((name.rfind("regression_", 0) == 0) != regressions) {
      continue;
    }
    ++replayed;
    RunResult r = RunTape(tape);
    EXPECT_TRUE(r.ok()) << name << " failed oracle '" << r.fail_kind << "' at op " << r.fail_op
                        << ": " << r.message << "\ndigest:\n"
                        << r.digest;
    EXPECT_EQ(r.ops_executed, tape.ops.size()) << name;
  }
  return replayed;
}

TEST(DstCorpusTest, EveryStoredScenarioReplaysGreen) {
  EXPECT_GE(ReplayCorpus(/*regressions=*/false), 22u);
}

TEST(HvFuzzCorpusTest, EveryTapeReplaysOracleClean) {
  EXPECT_GE(ReplayCorpus(/*regressions=*/true), 12u);
}

TEST(HvFuzzCorpusTest, DigestsAreByteIdenticalAcrossReruns) {
  for (const auto& [name, tape] : LoadCorpus()) {
    EXPECT_EQ(RunTape(tape).digest, RunTape(tape).digest) << name << ": rerun diverged";
  }
}

// ---------------------------------------------------------------------------
// Coverage-guided rounds: the oracle holds over fresh tapes.
// ---------------------------------------------------------------------------

constexpr int kDefaultRounds = 400;

// NEPHELE_DST_ROUNDS: unset or empty runs kDefaultRounds, 0 skips the
// generated rounds, a positive decimal integer runs that many. Anything
// else (`abc`, `-3`, `40x`) is an error naming the value rather than a
// silent skip or a truncated count.
Result<int> ParseGeneratedRounds(const char* env) {
  if (env == nullptr || *env == '\0') {
    return kDefaultRounds;
  }
  const std::string_view text(env);
  int rounds = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), rounds);
  if (ec != std::errc() || end != text.data() + text.size() || rounds < 0) {
    return ErrInvalidArgument("NEPHELE_DST_ROUNDS='" + std::string(text) +
                              "' is not a non-negative integer");
  }
  return rounds;
}

TEST(DstRoundsEnvTest, ParsesDefaultSkipAndCountAndRejectsTheRest) {
  EXPECT_EQ(*ParseGeneratedRounds(nullptr), kDefaultRounds);
  EXPECT_EQ(*ParseGeneratedRounds(""), kDefaultRounds);
  EXPECT_EQ(*ParseGeneratedRounds("0"), 0);
  EXPECT_EQ(*ParseGeneratedRounds("40"), 40);
  for (const char* bad : {"abc", "-3", "40x", " 40", "+40", "4.5", "99999999999"}) {
    const Result<int> r = ParseGeneratedRounds(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().ToString().find(std::string("'") + bad + "'"), std::string::npos)
        << r.status().ToString();
  }
}

// The generated rounds: NEPHELE_DST_ROUNDS tapes spread over eight fuzzer
// seeds. The seeds split into two halves, and the oracle test and the
// determinism test each run once per half, so every round is checked both
// ways while each test stays half the length.
constexpr std::uint64_t kFirstHalfSeeds[] = {1, 2, 3, 5};
constexpr std::uint64_t kSecondHalfSeeds[] = {8, 13, 21, 34};

// Runs each seed's share of `rounds` tapes with default options, feeds the
// coverage back, and hands every tape and run to `visit`.
template <typename Visit>
void ForEachGeneratedRound(std::span<const std::uint64_t> seeds, int rounds, Visit visit) {
  const int per_seed = (rounds + 7) / 8;
  for (std::uint64_t seed : seeds) {
    TapeFuzzer fuzzer(seed);
    for (int i = 0; i < per_seed; ++i) {
      Tape tape = fuzzer.Next();
      RunResult r = RunTape(tape);
      fuzzer.Report(r);
      visit(seed, tape, r);
    }
    EXPECT_GT(fuzzer.engine().edges_covered(), 0u);
    EXPECT_EQ(fuzzer.engine().executions(), static_cast<std::uint64_t>(per_seed));
  }
}

// Fixture of the generated-round tests: reads NEPHELE_DST_ROUNDS once per
// test, fails on a malformed value and skips on 0.
class GeneratedRoundsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Result<int> parsed = ParseGeneratedRounds(std::getenv("NEPHELE_DST_ROUNDS"));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (*parsed == 0) {
      GTEST_SKIP() << "NEPHELE_DST_ROUNDS=0";
    }
    rounds_ = *parsed;
  }

  // Every generated tape of one half passes the full oracle; at the default
  // round count the half reaches the whole vocabulary.
  void ExpectRoundsOracleClean(std::span<const std::uint64_t> seeds) const {
    std::size_t executed = 0;
    std::set<OpKind> kinds;
    ForEachGeneratedRound(seeds, rounds_,
                          [&](std::uint64_t seed, const Tape& tape, const RunResult& r) {
      ++executed;
      for (const Op& op : tape.ops) {
        kinds.insert(op.kind);
      }
      if (!r.ok()) {
        // A real finding: shrink it and print the minimal tape so it can be
        // fixed and pinned into tests/dst_corpus/.
        ShrinkOutcome shrunk = ShrinkTape(tape, r);
        ADD_FAILURE() << "seed " << seed << " violated oracle '" << r.fail_kind << "' at op "
                      << r.fail_op << ": " << r.message << "\nminimal tape ("
                      << shrunk.tape.ops.size() << " ops, " << shrunk.runs << " shrink runs):\n"
                      << shrunk.tape.ToText() << "\ndigest:\n"
                      << shrunk.result.digest;
      }
    });
    EXPECT_GE(executed, static_cast<std::size_t>(rounds_) / 2);
    if (rounds_ >= kDefaultRounds) {
      EXPECT_EQ(kinds.size(), kNumOpKinds);
    }
  }

  // Every generated tape of one half yields a byte-identical digest when
  // rerun.
  void ExpectRoundsDeterministic(std::span<const std::uint64_t> seeds) const {
    ForEachGeneratedRound(seeds, rounds_,
                          [](std::uint64_t seed, const Tape& tape, const RunResult& r) {
      EXPECT_EQ(r.digest, RunTape(tape).digest)
          << "seed " << seed << ": rerun diverged\n" << tape.ToText();
    });
  }

  int rounds_ = 0;
};

class DstGenerationTest : public GeneratedRoundsTest {};
class HvFuzzRoundsTest : public GeneratedRoundsTest {};

TEST_F(DstGenerationTest, TwoHundredGeneratedScenariosSatisfyTheOracle) {
  ExpectRoundsOracleClean(kFirstHalfSeeds);
}

TEST_F(HvFuzzRoundsTest, SeededRoundsStayOracleClean) {
  ExpectRoundsOracleClean(kSecondHalfSeeds);
}

TEST_F(DstGenerationTest, DigestsAreIdenticalAcrossReruns) {
  ExpectRoundsDeterministic(kFirstHalfSeeds);
}

TEST_F(HvFuzzRoundsTest, GeneratedTapesReplayIdentically) {
  ExpectRoundsDeterministic(kSecondHalfSeeds);
}

// ---------------------------------------------------------------------------
// Seeded bugs: the oracle catches them, the shrinker minimises them.
// ---------------------------------------------------------------------------

// After every advance op, a stray hypervisor write lands in the newest
// guest's first tracked cell behind the model's back — the shape of a real
// bug where some background path scribbles over guest memory.
RunOptions AdvanceScribbleBug() {
  RunOptions options;
  options.after_op = [](NepheleSystem& sys, const Op& op, std::size_t) {
    if (op.kind != OpKind::kAdvance) {
      return;
    }
    const auto ids = sys.hypervisor().DomainIds();
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      if (*it == kDom0) {
        continue;
      }
      const GuestMemoryLayout layout =
          ComputeGuestLayout(DstGuestConfig(), sys.hypervisor().config().min_domain_pages);
      const std::uint8_t rogue = 0x5a;
      (void)sys.hypervisor().WriteGuestPage(*it, static_cast<Gfn>(layout.heap_first_gfn), 0,
                                            &rogue, 1);
      return;
    }
  };
  return options;
}

TEST(DstShrinkTest, SeededBugIsCaughtAndShrunkToAMinimalReproducer) {
  // A long tape with one advance op buried in structural noise.
  Tape tape = MustParse(
      "seed 77\n"
      "pool_frames 65536\n"
      "launch\n"
      "write c=3 v=9\n"
      "advance amount=1000\n"
      "launch\n"
      "devio c=1 v=5\n"
      "clone n=2\n"
      "write a=8 v=4\n"
      "write a=4 c=7 v=8\n"
      "reset a=8\n"
      "devio a=4 c=2 v=6\n"
      "launch\n"
      "write a=12 c=11 v=3\n"
      "destroy a=12\n"
      "clone n=1\n"
      "write c=2 v=2\n"
      "advance amount=5000\n"
      "devio a=8 c=3 v=7\n"
      "launch\n"
      "write a=16 c=5 v=1\n"
      "advance amount=2500\n");
  ASSERT_EQ(tape.ops.size(), 20u);

  const RunOptions options = AdvanceScribbleBug();
  RunResult failure = RunTape(tape, options);
  ASSERT_FALSE(failure.ok()) << "the seeded bug went undetected";
  EXPECT_EQ(failure.fail_kind, "cells");
  // Caught at the first advance op, not at the end of the run.
  EXPECT_EQ(failure.fail_op, 2u);

  ShrinkOutcome shrunk = ShrinkTape(tape, failure, options);
  EXPECT_EQ(shrunk.result.fail_kind, failure.fail_kind);
  // The true minimum: one guest plus the op that triggers the rogue write.
  EXPECT_EQ(shrunk.tape.ops.size(), 2u) << "not fully minimised:\n" << shrunk.tape.ToText();
  // The minimised tape still fails when replayed from its text form.
  RunResult replay = RunTape(MustParse(shrunk.tape.ToText()), options);
  EXPECT_EQ(replay.fail_kind, failure.fail_kind);
}

// A clean system run under a similar tape (no seeded bug) passes — the
// failure above is the bug, not the harness.
TEST(DstShrinkTest, SameScenarioPassesWithoutTheSeededBug) {
  Tape tape = MustParse(
      "seed 77\n"
      "launch\n"
      "write c=3 v=9\n"
      "advance amount=1000\n"
      "clone n=2\n"
      "reset a=4\n"
      "advance amount=2500\n");
  RunResult result = RunTape(tape);
  EXPECT_TRUE(result.ok()) << result.fail_kind << ": " << result.message;
}

Tape ThreeOpTape() {
  Tape tape;
  tape.ops.emplace_back();  // launch
  Op grant;
  grant.kind = OpKind::kGrant;
  grant.c = 1;
  tape.ops.push_back(grant);
  Op ev;
  ev.kind = OpKind::kEvAlloc;
  tape.ops.push_back(ev);
  return tape;
}

TEST(HvFuzzSeededBugTest, CowIsolationBugIsCaughtAndShrinksToMinimalTape) {
  // Poison tracked cell 0 of the first guest behind the model's back: the
  // cells oracle must flag it on the first settled op with a live guest.
  RunOptions opts;
  opts.after_op = [](NepheleSystem& sys, const Op&, std::size_t) {
    for (DomId id : sys.hypervisor().DomainIds()) {
      if (id == kDom0) {
        continue;
      }
      const std::size_t heap0 =
          ComputeGuestLayout(DstGuestConfig(), sys.hypervisor().config().min_domain_pages)
              .heap_first_gfn;
      const std::uint8_t evil = 0x5A;
      (void)sys.hypervisor().WriteGuestPage(id, static_cast<Gfn>(heap0),
                                            ReferenceModel::SlotOffset(0), &evil, 1);
      break;
    }
  };
  Tape tape = ThreeOpTape();
  RunResult r = RunTape(tape, opts);
  ASSERT_EQ(r.fail_kind, "cells") << r.message;

  ShrinkOutcome shrunk = ShrinkTape(tape, r, opts);
  EXPECT_EQ(shrunk.result.fail_kind, "cells");
  // The failure needs nothing beyond booting one guest.
  ASSERT_EQ(shrunk.tape.ops.size(), 1u);
  EXPECT_EQ(shrunk.tape.ops[0].kind, OpKind::kLaunch);
}

TEST(HvFuzzSeededBugTest, FrameRefcountBugIsCaughtAndShrinks) {
  // Drop a reference the p2m still holds: frame conservation must fail.
  RunOptions opts;
  opts.after_op = [](NepheleSystem& sys, const Op&, std::size_t) {
    for (DomId id : sys.hypervisor().DomainIds()) {
      if (id == kDom0) {
        continue;
      }
      const Domain* d = sys.hypervisor().FindDomain(id);
      if (d == nullptr || d->p2m.empty()) {
        continue;
      }
      (void)sys.hypervisor().frames().Release(d->p2m[0].mfn);
      break;
    }
  };
  Tape tape = ThreeOpTape();
  RunResult r = RunTape(tape, opts);
  ASSERT_EQ(r.fail_kind, "frames") << r.message;

  ShrinkOutcome shrunk = ShrinkTape(tape, r, opts);
  EXPECT_LE(shrunk.tape.ops.size(), 3u);
  EXPECT_EQ(shrunk.result.fail_kind, "frames");
}

// --- The generic ddmin engine (also exercised end to end above). ---

TEST(DdminEngineTest, FindsTheMinimalFailingSubsequence) {
  std::vector<int> ops = {1, 2, 3, 4, 5, 6, 7, 8};
  std::size_t runs_seen = 0;
  auto outcome = DdminShrink<int, bool>(
      ops, true, ops.size() - 1,
      [&runs_seen](const std::vector<int>& candidate) {
        ++runs_seen;
        bool has3 = false;
        bool has7 = false;
        for (int v : candidate) {
          has3 |= v == 3;
          has7 |= v == 7;
        }
        return has3 && has7;
      },
      [](const bool& failed) { return failed; },
      [](const int&) { return std::vector<int>{}; });
  EXPECT_EQ(outcome.ops, (std::vector<int>{3, 7}));
  EXPECT_TRUE(outcome.result);
  EXPECT_EQ(outcome.runs, runs_seen);
}

}  // namespace
}  // namespace nephele
