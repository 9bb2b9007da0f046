// Coverage-guided tape generation and failure minimisation.
//
// TapeFuzzer wraps the AflEngine: each mutated byte string decodes through
// the total TapeFromBytes, and the edges a run reports feed the engine's
// coverage map, so generation gravitates toward op sequences that reach new
// executor states. ShrinkTape minimises a failing tape with the generic
// DdminShrink engine (src/dst/ddmin.h):
//
//   1. truncate — ops after the failing op are irrelevant by construction;
//   2. ddmin    — delete chunks of ops, halving the chunk size down to 1,
//                 restarting whenever a deletion sticks;
//   3. simplify — per-op operand reduction (selectors toward 0, batch size
//                 to 1, lazy to eager), accepted only when the failure
//                 persists with the SAME fail kind.
//
// Every candidate is re-executed with the caller's RunOptions, so seeded-bug
// hooks travel with the reruns. The result is 1-minimal: removing any single
// remaining op makes the failure disappear.

#ifndef SRC_DST_FUZZER_H_
#define SRC_DST_FUZZER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/dst/executor.h"
#include "src/dst/tape.h"
#include "src/fuzz/afl.h"

namespace nephele {

class TapeFuzzer {
 public:
  explicit TapeFuzzer(std::uint64_t seed);

  // Pulls the next mutated input from the AFL queue and decodes it.
  Tape Next();
  // Feeds the run's coverage (and failure bit) back for the tape from the
  // most recent Next().
  void Report(const RunResult& result);

  const AflEngine& engine() const { return engine_; }

 private:
  std::uint64_t seed_;
  AflEngine engine_;
  std::vector<std::uint8_t> last_bytes_;
};

// The generated DST rounds: kDefaultGeneratedRounds tapes spread evenly
// over eight fuzzer seeds, split into two halves of four. The dst suite
// checks each half both for oracle violations and for rerun determinism;
// the dst_digests tool prints one digest line per tape of both halves.
inline constexpr int kDefaultGeneratedRounds = 400;
inline constexpr std::uint64_t kFirstHalfSeeds[] = {1, 2, 3, 5};
inline constexpr std::uint64_t kSecondHalfSeeds[] = {8, 13, 21, 34};

// Runs each seed's share of `rounds` tapes (rounds / 8, rounded up) with
// default options, feeding coverage back to the seed's fuzzer; hands every
// tape and its run to `visit`, and each seed's fuzzer to `seed_done` once
// its share has run.
void ForEachGeneratedRound(
    std::span<const std::uint64_t> seeds, int rounds,
    const std::function<void(std::uint64_t seed, const Tape&, const RunResult&)>& visit,
    const std::function<void(const TapeFuzzer&)>& seed_done = nullptr);

struct ShrinkOutcome {
  Tape tape;             // the minimised failing tape
  RunResult result;      // its failing run
  std::size_t runs = 0;  // executions spent shrinking
};

ShrinkOutcome ShrinkTape(const Tape& failing, const RunResult& failure,
                         const RunOptions& options = {});

}  // namespace nephele

#endif  // SRC_DST_FUZZER_H_
