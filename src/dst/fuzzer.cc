#include "src/dst/fuzzer.h"

#include <utility>

#include "src/dst/ddmin.h"

namespace nephele {

TapeFuzzer::TapeFuzzer(std::uint64_t seed) : seed_(seed), engine_(seed) {
  // Graded seeds: the empty input exercises the pure fallback stream, the
  // ramps give the mutator distinct shapes to splice and flip.
  engine_.AddSeed({});
  for (std::uint8_t len : {4, 12, 32}) {
    std::vector<std::uint8_t> ramp(len);
    for (std::uint8_t i = 0; i < len; ++i) {
      ramp[i] = static_cast<std::uint8_t>(i * 7 + len);
    }
    engine_.AddSeed(std::move(ramp));
  }
}

Tape TapeFuzzer::Next() {
  last_bytes_ = engine_.NextInput();
  return TapeFromBytes(seed_, last_bytes_);
}

void TapeFuzzer::Report(const RunResult& result) {
  engine_.ReportResult(last_bytes_, result.edges, !result.ok());
}

namespace {

// Operand reductions tried per op once deletion bottoms out. Selectors pull
// toward 0 (the first live domain, the least hostile menu entry), structural
// knobs toward their minimum, and post-copy toward the simpler eager
// mechanism.
std::vector<Op> SimplerVariants(const Op& op) {
  std::vector<Op> out;
  auto add = [&out, &op](auto mutate) {
    Op v = op;
    mutate(v);
    if (!(v == op)) {
      out.push_back(std::move(v));
    }
  };
  add([](Op& v) { v.a = 0; });
  add([](Op& v) { v.b = 0; });
  add([](Op& v) { v.c = 0; });
  add([](Op& v) { v.n = v.n > 1 ? 1 : v.n; });
  add([](Op& v) { v.v = v.v > 1 ? 1 : v.v; });
  add([](Op& v) { v.flags = 0; });
  add([](Op& v) { v.amount = v.amount > 1 ? 1 : v.amount; });
  add([](Op& v) {
    if (v.spec.policy == FaultSpec::Policy::kNthHit) {
      v.spec.nth = 1;
    }
  });
  add([](Op& v) {
    if (v.kind == OpKind::kLazyClone) {
      v.kind = OpKind::kClone;
      v.c = 0;
    } else if (v.kind == OpKind::kLazyTouch) {
      v.kind = OpKind::kWrite;
    }
  });
  return out;
}

}  // namespace

ShrinkOutcome ShrinkTape(const Tape& failing, const RunResult& failure,
                         const RunOptions& options) {
  Tape shell = failing;  // carries seed/pool_frames for every candidate
  const std::string want_kind = failure.fail_kind;
  auto outcome = DdminShrink<Op, RunResult>(
      failing.ops, failure, failure.fail_op,
      [&shell, &options](const std::vector<Op>& ops) {
        shell.ops = ops;
        return RunTape(shell, options);
      },
      [&want_kind](const RunResult& r) { return !r.ok() && r.fail_kind == want_kind; },
      &SimplerVariants);
  shell.ops = std::move(outcome.ops);
  return ShrinkOutcome{std::move(shell), std::move(outcome.result), outcome.runs};
}

}  // namespace nephele
