// Generic delta-debugging minimiser over an op sequence, the engine behind
// ShrinkTape (src/dst/fuzzer.h). The caller supplies the failure predicate —
// "re-run this candidate op list; does it still fail the same way?" — so the
// algorithm is independent of what an op is or what executing one means:
//
//   1. truncate — ops after the failing op are irrelevant by construction;
//   2. ddmin    — delete chunks of ops, halving the chunk size down to 1,
//                 restarting whenever a deletion sticks;
//   3. simplify — per-op operand reduction via caller-supplied variants,
//                 accepted only when the failure persists.
//
// The result is 1-minimal: removing any single remaining op makes the
// failure disappear (under the caller's fails-same predicate).

#ifndef SRC_DST_DDMIN_H_
#define SRC_DST_DDMIN_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace nephele {

template <typename OpT, typename ResultT>
struct DdminOutcome {
  std::vector<OpT> ops;  // the minimised failing op list
  ResultT result;        // its failing run
  std::size_t runs = 0;  // executions spent shrinking
};

// `run`        executes a candidate op list and returns its result.
// `fails_same` decides whether a result reproduces the original failure.
// `fail_op`    index of the op the original failure surfaced at.
// `variants`   returns simpler candidate replacements for one op (may be
//              empty); each accepted simplification often unlocks deletions.
template <typename OpT, typename ResultT>
DdminOutcome<OpT, ResultT> DdminShrink(
    std::vector<OpT> ops, ResultT failure, std::size_t fail_op,
    const std::function<ResultT(const std::vector<OpT>&)>& run,
    const std::function<bool(const ResultT&)>& fails_same,
    const std::function<std::vector<OpT>(const OpT&)>& variants) {
  DdminOutcome<OpT, ResultT> out{std::move(ops), std::move(failure), 0};

  auto still_fails = [&](const std::vector<OpT>& candidate) {
    ++out.runs;
    ResultT r = run(candidate);
    if (fails_same(r)) {
      out.ops = candidate;
      out.result = std::move(r);
      return true;
    }
    return false;
  };

  // Truncate.
  if (fail_op + 1 < out.ops.size()) {
    std::vector<OpT> candidate = out.ops;
    candidate.resize(fail_op + 1);
    (void)still_fails(candidate);
  }

  // ddmin: chunked deletion with halving granularity.
  auto deletion_pass = [&] {
    bool shrunk = false;
    std::size_t chunk = std::max<std::size_t>(out.ops.size() / 2, 1);
    while (chunk >= 1) {
      bool progress = false;
      for (std::size_t start = 0; start < out.ops.size();) {
        std::vector<OpT> candidate = out.ops;
        const std::size_t end = std::min(start + chunk, candidate.size());
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(start),
                        candidate.begin() + static_cast<std::ptrdiff_t>(end));
        if (!candidate.empty() && still_fails(candidate)) {
          progress = true;
          shrunk = true;
          // out.ops changed; retry the same start against the shorter list.
        } else {
          start += chunk;
        }
      }
      if (chunk == 1 && !progress) {
        break;
      }
      if (!progress) {
        chunk /= 2;
      }
    }
    return shrunk;
  };

  auto simplify_pass = [&] {
    bool shrunk = false;
    for (std::size_t i = 0; i < out.ops.size(); ++i) {
      for (const OpT& simpler : variants(out.ops[i])) {
        std::vector<OpT> candidate = out.ops;
        candidate[i] = simpler;
        if (still_fails(candidate)) {
          shrunk = true;
          break;  // re-derive variants from the new op on the next pass
        }
      }
    }
    return shrunk;
  };

  while (deletion_pass() || simplify_pass()) {
    // Either pass shrinking re-opens opportunities for the other; iterate to
    // a combined fixpoint.
  }
  return out;
}

}  // namespace nephele

#endif  // SRC_DST_DDMIN_H_
