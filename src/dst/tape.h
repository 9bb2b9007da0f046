// The op tape: the one input format of the deterministic-simulation engine.
//
// A Tape is a seed, a hypervisor pool size and a typed op list — the
// complete input of one simulation run. Ops never name concrete ids: they
// carry operand *selectors* (`a`/`b`/`c` index menus of targets such as a
// live domain, a destroyed one, Dom0, kDomChild, an out-of-range gfn or a
// stale handle) that the executor resolves against its state at run time.
// Deleting an op therefore never invalidates the ones after it, it only
// changes which menu entry they land on, so a tape stays meaningful while
// the shrinker edits it.
//
// The vocabulary mixes two kinds of ops on one system:
//   * well-formed ops (launch, clone, write, reset, migrate, devio, sched
//     acquire/release, ...) whose effects the reference model predicts
//     exactly — selector `a = 4k` always names the k-th live domain;
//   * hostile guest-issued ops (grants, event channels, raw guest memory
//     access, malformed xenstore and 9p requests, ...) that must surface
//     typed errors and leave the hypervisor invariant-clean.
//
// Tapes exist in three forms:
//   * bytes   — AFL mutation input; TapeFromBytes is a total decoder (any
//               byte string is a valid tape, same bytes => same tape);
//   * structs — what the executor runs and the ddmin shrinker edits;
//   * text    — the corpus format (tests/dst_corpus/*.tape), a strict
//               line-oriented round-trippable encoding for humans and git.

#ifndef SRC_DST_TAPE_H_
#define SRC_DST_TAPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/fault/fault.h"

namespace nephele {

enum class OpKind : std::uint8_t {
  kLaunch = 0,    // xl create of a fresh root guest
  kClone,         // clone_op: a=parent sel, b=caller menu, n=children,
                  // workers=staging threads (0 keeps), flags bit0=bogus
                  // start_info mfn, bit1=skip settle (clone-during-clone)
  kLazyClone,     // clone_op with lazy=true: kClone operands plus c=tracked
                  // page hinted hot; children stay half-mapped until streamed
  kWrite,         // tracked heap-cell write: a=dom sel, c=cell, v=value
  kLazyTouch,     // kWrite aimed at a not-present (deferred) tracked page,
                  // scanning from page c — the demand-fault path
  kReset,         // clone_reset: a=target sel, b=caller menu
  kDestroy,       // xl destroy: a=target sel
  kMigrateOut,    // stop-and-copy emigration of a=dom sel into a stream
  kMigrateIn,     // immigration of stored stream c
  kDevio,         // device control-plane xenstore data write: a=dom sel,
                  // c=key, v=value tag
  kSchedAcquire,  // CloneScheduler::Acquire: a=parent sel, n=children
  kSchedRelease,  // CloneScheduler::Release of granted child c
  kArm,           // arm fault point `point` with `spec`
  kDisarm,        // disarm every fault point
  kAdvance,       // advance virtual time by `amount` ns (capped at 1 s)
  kSettle,        // drain the event loop
  kStream,        // flags bit0 ? FinishStreaming(a=dom sel)
                  //            : StreamPump(1 + n%4) manual batches
  kGrant,         // grant_access: a=granter sel, b=grantee menu, c=gfn menu,
                  // flags bit0=readonly
  kMap,           // map_grant: a=mapper sel, c=grant-handle menu
  kUnmap,         // unmap_grant: a=caller sel, c=grant-handle menu
  kEndGrant,      // end_access: a odd=stranger revokes, c=grant-handle menu
  kEvAlloc,       // evtchn_alloc_unbound: a=owner sel, b=remote menu
  kEvBind,        // evtchn_bind_interdomain: a=binder sel, c=port menu
  kEvSend,        // a=sender menu, c=port-handle menu
  kEvClose,       // a=closer menu, c=port-handle menu
  kXsWrite,       // hostile xenstore write: a=dom sel, b=key menu, c=value menu
  kP9,            // 9p request: a=dom sel, b=sub-op menu, c=path/fid menu,
                  // n=offset menu
  kRawWrite,      // WriteGuestPage: a=dom sel, c=gfn menu, n=offset menu,
                  // v=len menu
  kRead,          // ReadGuestPage, same menus as kRawWrite
  kTouch,         // TouchGuestPages: a=dom sel, c=gfn menu, n=count menu
  kCow,           // clone_cow: a=target sel, c=gfn menu, n=count menu
};
inline constexpr std::size_t kNumOpKinds = 31;

// The canonical op names of the text encoding, in OpKind order.
const char* OpKindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kLaunch;
  std::uint32_t a = 0;       // primary target selector
  std::uint32_t b = 0;       // secondary selector (caller / peer / key menu)
  std::uint32_t c = 0;       // tertiary selector (cell / gfn / handle menu)
  std::uint32_t n = 0;       // count / offset selector
  std::uint32_t v = 0;       // value / length selector
  std::uint32_t flags = 0;   // per-kind behaviour bits
  std::uint32_t workers = 0; // kClone/kLazyClone: staging threads (0 = keep)
  std::uint64_t amount = 0;  // kAdvance: nanoseconds
  std::string point;         // kArm: fault point name
  FaultSpec spec = FaultSpec::NthHit(1);  // kArm: trigger

  bool operator==(const Op& other) const;
};

struct Tape {
  // Provenance only: the decoder seed this tape was derived from.
  std::uint64_t seed = 1;
  // Hypervisor pool size. The 64 MiB default fits ~10 guests and is small
  // enough that clone storms reach genuine pool exhaustion.
  std::size_t pool_frames = kDefaultPoolFrames;
  std::vector<Op> ops;

  static constexpr std::size_t kDefaultPoolFrames = 16384;

  bool operator==(const Tape& other) const = default;

  // Corpus text format:
  //   # comment lines
  //   seed <n>
  //   [pool_frames <n>]
  //   <op-name> [a=<n>] [b=<n>] [c=<n>] [n=<n>] [v=<n>] [flags=<n>]
  //             [workers=<n>] [amount=<n>] [point=<name> [nth=<n>]
  //             [p=<float> pseed=<n>]]
  // Zero-valued operands (nth: 1) are omitted on write. The parser rejects
  // unknown ops, unknown keys, operands the op kind does not read and
  // malformed or out-of-range values (a 32-bit operand above 2^32-1, any
  // number above 2^64-1, pool_frames 0), so corpus rot fails loudly instead
  // of being skipped or silently truncated.
  std::string ToText() const;
  static Result<Tape> FromText(const std::string& text);
};

// Total decoder: every byte string decodes to a tape; the same (seed, bytes)
// pair always decodes to the same tape. Bytes drive the choices first, then
// a deterministic fallback stream derived from everything consumed so far.
Tape TapeFromBytes(std::uint64_t seed, const std::vector<std::uint8_t>& bytes);

}  // namespace nephele

#endif  // SRC_DST_TAPE_H_
