// The DST executor: runs one Tape against a freshly constructed, fully wired
// NepheleSystem (clone scheduler, 9p backend and fault injector included),
// updates the ReferenceModel in lock step, and evaluates one oracle stack
// after every settled op, in this order:
//
//   op-status   no operation may surface StatusCode::kInternal, and a
//               well-formed op the model admits must not fail (and vice
//               versa) while no fault is armed
//   live-set    hypervisor domain table == model domain set
//   topology    parent edges, clone accounting, pause state, p2m geometry,
//               per-page pte writability vs the model's COW mirror
//   cells       every tracked heap cell of every live domain reads exactly
//               the byte the model predicts (COW isolation, clone_reset)
//   xenstore    the /data mirror each domain carries (inherited on clone,
//               dropped on destroy) matches, via side-effect-free peeks
//   frames, p2m, grants, evtchns
//               CheckHypervisorInvariants, layer by layer
//   counters    expected deltas of the clone/reset/destroy/stream counter
//               set; ops whose effects the model cannot predict (armed
//               faults, hostile memory access, rollbacks) re-baseline
//   teardown    after destroying everything, the pool returns to boot level
//
// An op that deliberately skips its post-op settle (clone flags bit1 — the
// clone-during-clone window) defers the state checks to the next settled
// op. A run is deterministic: the same tape produces a byte-identical digest
// on every run.

#ifndef SRC_DST_EXECUTOR_H_
#define SRC_DST_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/dst/tape.h"
#include "src/toolstack/domain_config.h"

namespace nephele {

class NepheleSystem;

// The fixed configuration every DST guest boots with. Exposed so tests can
// recompute the guest memory layout (e.g. to seed bugs at known cells).
DomainConfig DstGuestConfig();

struct RunOptions {
  // Test-only hook, invoked after each op executes and the model is updated
  // but before the oracle runs. Lets tests seed a deliberate bug (mutate
  // system state behind the model's back) to prove the oracle catches it
  // and the shrinker minimises it.
  std::function<void(NepheleSystem&, const Op&, std::size_t op_index)> after_op;
};

struct RunResult {
  // Empty when the run passed; otherwise the failing check's category
  // ("op-status", "live-set", "topology", "cells", "xenstore", "frames",
  // "p2m", "grants", "evtchns", "counters", "teardown").
  std::string fail_kind;
  std::size_t fail_op = static_cast<std::size_t>(-1);
  std::string message;

  // Deterministic run fingerprint: per-op outcome log plus hashes of the
  // final metrics JSON, trace JSON and the final virtual time.
  std::string digest;
  // Coverage edges for the fuzzer's feedback loop.
  std::vector<std::uint32_t> edges;
  std::size_t ops_executed = 0;

  bool ok() const { return fail_kind.empty(); }
};

RunResult RunTape(const Tape& tape, const RunOptions& options = {});

// 64-bit FNV-1a, the digest hash (exposed for tests).
std::uint64_t DstHash64(std::string_view data);

}  // namespace nephele

#endif  // SRC_DST_EXECUTOR_H_
