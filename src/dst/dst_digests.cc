// dst_digests: prints one line per DST tape — every tape of the stored
// corpus (tests/dst_corpus) and every generated round the dst suite runs
// (8 seeds x 50 tapes) — as
//
//   <tape> <DstHash64(digest), hex> <ok | failing oracle kind>
//
// Runs are deterministic, so diffing the output of two builds shows exactly
// which tapes a change moved:
//
//   diff <(old/build/src/dst/dst_digests) <(new/build/src/dst/dst_digests)
//
// Takes no flags.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/dst/executor.h"
#include "src/dst/fuzzer.h"
#include "src/dst/tape.h"

namespace nephele {
namespace {

void PrintLine(const std::string& name, const RunResult& r) {
  std::printf("%s %016" PRIx64 " %s\n", name.c_str(), DstHash64(r.digest),
              r.ok() ? "ok" : r.fail_kind.c_str());
}

int Main(int argc, char** /*argv*/) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: dst_digests (takes no arguments)\n");
    return 2;
  }
  std::vector<std::filesystem::path> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(NEPHELE_DST_CORPUS_DIR)) {
    if (entry.path().extension() == ".tape") {
      corpus.push_back(entry.path());
    }
  }
  std::sort(corpus.begin(), corpus.end());
  for (const auto& path : corpus) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    auto tape = Tape::FromText(text.str());
    if (!tape.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), tape.status().ToString().c_str());
      return 1;
    }
    PrintLine(path.filename().string(), RunTape(*tape));
  }

  int index = 0;  // of the tape within its seed's share
  for (const auto& seeds : {std::span(kFirstHalfSeeds), std::span(kSecondHalfSeeds)}) {
    ForEachGeneratedRound(
        seeds, kDefaultGeneratedRounds,
        [&](std::uint64_t seed, const Tape&, const RunResult& r) {
          PrintLine("seed" + std::to_string(seed) + "/" + std::to_string(index++), r);
        },
        [&](const TapeFuzzer&) { index = 0; });
  }
  return 0;
}

}  // namespace
}  // namespace nephele

int main(int argc, char** argv) { return nephele::Main(argc, argv); }
