// CloneEngine: the hypervisor side of Nephele — the CLONEOP hypercall and
// the first stage of cloning (Sec. 4.1, 5.1, 5.2). It operates directly on
// hypervisor state, exactly as the real implementation extends Xen itself.
//
// The first stage of a batch runs in two phases on the simulation thread:
//
//   build   — child by child, one in-order pass over the parent's p2m:
//           private pages are copied into fresh frames, every other page is
//           COW-shared at once (or, in a lazy batch, deferred), then page
//           tables, p2m frames, grant and event-channel tables. Fault pokes,
//           the child's virtual-time lane and every counter are updated as
//           the pass goes. Everything that can fail fails here.
//   commit  — once every child is built, in child-index order: parent IDC
//           event-channel fix-up, notification-ring pushes, VIRQ_CLONED,
//           pending/outstanding bookkeeping. Nothing here can fail.
//
// A failed batch is undone from the children's own p2m, newest child and
// newest entry first; a half-built child holds exactly the entries its pass
// reached, so it unwinds the same way. Virtual time is charged as the
// critical path over the per-child lanes (the hypervisor builds the children
// of one CLONEOP independently, so a batch costs its slowest child, not the
// sum), which for a single clone is the exact serial cost.

#ifndef SRC_CORE_CLONE_ENGINE_H_
#define SRC_CORE_CLONE_ENGINE_H_

#include <cstddef>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/core/clone_types.h"
#include "src/fault/fault.h"
#include "src/hypervisor/hypervisor.h"
#include "src/obs/clone_observer.h"
#include "src/obs/metrics.h"
#include "src/obs/services.h"
#include "src/obs/trace.h"

namespace nephele {

class CloneEngine {
 public:
  // Records into services.metrics, traces stage 1 into services.trace and
  // registers its stage-1, reset and lazy fault points with services.faults.
  CloneEngine(Hypervisor& hv, const SystemServices& services);

  // ---------------------------------------------------------------------
  // CLONEOP subcommands.
  // ---------------------------------------------------------------------

  // kClone: creates `req.num_children` children of `req.parent` (see
  // CloneRequest for the field semantics). On success the parent is paused
  // until every child finishes the second stage, and the returned array is
  // what the hypervisor writes back to the caller.
  Result<std::vector<DomId>> Clone(const CloneRequest& req);

  // kCloneCompletion: xencloned signals that the second stage of `child` is
  // done. Resumes the child (unless configured paused) and the parent once
  // all its outstanding children completed.
  Status CloneCompletion(DomId child);

  // The failure twin of CloneCompletion: xencloned reports that the second
  // stage of `child` failed and the child was destroyed. Retires the pending
  // entry, fires OnCloneAborted and — like a completion — unblocks the
  // parent once no children remain outstanding, so a partial batch failure
  // never wedges the parent.
  Status CloneAborted(DomId child);

  // kCloneCow: explicitly un-share (COW) `count` pages of `dom` starting at
  // `gfn`, so KFX can insert breakpoints into clone-private text (Sec. 7.2).
  Status CloneCow(DomId caller, DomId dom, Gfn gfn, std::size_t count);

  // kCloneReset: restores every page `child` dirtied since its clone back to
  // the shared post-clone state (Sec. 7.2 memory reset between fuzz
  // iterations). Returns the number of pages restored.
  Result<std::size_t> CloneReset(DomId caller, DomId child);

  // kEnableGlobal.
  Status EnableGlobal(DomId caller, bool enabled);

  // ---------------------------------------------------------------------
  // Lazy (post-copy) cloning.
  // ---------------------------------------------------------------------
  // A CloneRequest with `lazy` set maps only the hot working set in stage 1;
  // every other kData page becomes a not-present p2m entry backed by the
  // parent, recorded in the child's deferred ledger
  // (Domain::lazy_deferred_pages). The remainder streams in through a
  // background prefetcher on the event loop, with demand faults (guest
  // writes, grants, clone_cow) materialising individual pages ahead of the
  // stream. A fully-streamed lazy child is state-for-state identical
  // to an eager clone of the same parent.

  // Replaces the prefetcher knobs. Affects batches built and stream
  // batches run after the call; in-flight streams keep their page list but
  // pick up the new batch size and interval.
  void SetLazyConfig(const LazyCloneConfig& cfg) { lazy_cfg_ = cfg; }
  const LazyCloneConfig& lazy_config() const { return lazy_cfg_; }

  // True while `child` still has deferred pages to stream.
  bool IsStreaming(DomId child) const { return streaming_.count(child) > 0; }
  // Deferred pages `child` still owes (0 when not streaming).
  std::size_t PendingStreamPages(DomId child) const;

  // Synchronously streams every remaining deferred page of `child`, poking
  // the "lazy/stream" fault point once per batch like the background
  // prefetcher would. On an injected fault the stream stalls: the error is
  // returned, progress so far is kept, and the child remains streaming.
  // Not-streaming children succeed trivially. Clone() of a streaming
  // parent, CloneReset() of a streaming child (or of a parent with
  // streaming children) and the scheduler's park path all funnel through
  // this, so no operation ever observes a half-mapped domain it would
  // mis-handle.
  Status FinishStreaming(DomId child);

  // Manual-mode pump: runs up to `batches` prefetcher batches, round-robin
  // over streaming children in ascending DomId order. Returns the number of
  // pages materialised. Stalled batches (armed "lazy/stream" fault) count
  // against `batches` but stream nothing. The DST executor drives streams
  // exclusively through this (auto_stream=false) so mid-stream windows
  // between ops are deterministic.
  std::size_t StreamPump(std::size_t batches = 1);

  // ---------------------------------------------------------------------
  // Wiring.
  // ---------------------------------------------------------------------
  CloneNotificationRing& notification_ring() { return ring_; }

  // All clone-path instrumentation — the guest runtime, the metrics layer,
  // tracing, benches — registers through this single interface. Observers
  // are not owned; callers must RemoveObserver before destroying one. They
  // run in registration order (see clone_observer.h for per-callback
  // delivery semantics).
  void AddObserver(CloneObserver* observer);
  void RemoveObserver(CloneObserver* observer);

  const CloneStats& stats() const { return stats_; }

 private:
  // One child of a batch: its domain once created, and its virtual-time
  // lane (its cost had it been cloned alone, minus the hypercall trap).
  struct ChildBuild {
    DomId id = kDomInvalid;
    Domain* child = nullptr;
    SimDuration lane;
  };

  // State shared by the children of one batch.
  struct Batch {
    // Parent frames that entered COW sharing in THIS batch (rollback must
    // Unshare these; frames shared by an earlier batch only lose a ref).
    std::unordered_set<Mfn> first_shared;
    // Parent ptes flipped writable->read-only by this batch, for rollback.
    std::vector<Gfn> writable_flips;
    DomId first_child = kDomInvalid;
    // --- Lazy mode (set once in Clone(), read-only afterwards). ---
    bool lazy = false;
    // The hot working set: gfns mapped eagerly; other kData pages defer.
    std::unordered_set<Gfn> hot;
    // Parent gfns deferred for every child (kData, not hot), ascending —
    // the initial stream list of each child.
    std::vector<Gfn> deferred_gfns;
  };

  // Builds one child of the batch in a single pass over the parent's p2m
  // (see the file comment). On failure the half-built child is left behind,
  // recorded in `cb`, for RollbackBatch.
  Status BuildChild(Domain& parent, Batch& batch, ChildBuild& cb);

  // Seeds Batch::hot for a lazy batch: specials and private pages are
  // implicitly hot (never deferred); this collects the explicit hint plus up
  // to max_hot_pages recently-touched parent pages (dirty_since_clone, then
  // still-writable kData pages — exactly the pages that saw a write since
  // the previous clone).
  void ComputeHotSet(const Domain& parent, const CloneRequest& req, Batch& batch);

  // Shares the parent's frame at `gfn` into `child` and clears the deferred
  // ledger entry. The caller has checked the entry is not present and
  // charges its own fixed cost (stream batch vs demand fault); this charges
  // the per-page share cost. Infallible: streaming state guarantees a live,
  // fully-mapped parent.
  void MaterializePage(Domain& parent, Domain& child, Gfn gfn);

  // One prefetcher batch for `child`: pokes "lazy/stream" (a fault stalls
  // the batch — returned, nothing streamed), charges the batch cost and
  // materialises up to stream_batch_pages deferred pages. `out_pages`
  // (optional) reports pages materialised. Erases the stream state when the
  // child finishes.
  Status RunStreamBatch(DomId child, std::size_t* out_pages);

  // Background tick: one batch, then re-posts itself while the child still
  // streams (also after a stall — the injected fault is treated as a
  // transient backend error, so the stream retries instead of dying).
  void ScheduleStreamTick(DomId child);

  // Demand path (Hypervisor::LazyTouchHook): a touch of (dom, gfn) that
  // needs page materialisation before the regular COW machinery may look at
  // the entry. Two cases — `dom` is a streaming child touching its own
  // not-present entry (demand fault), or `dom` is a parent about to COW a
  // page its streaming children still defer (the write would break the
  // children's snapshot, so the page is pushed to them first). Pokes
  // "lazy/demand_fault"; an injected fault surfaces as the touch's error
  // and leaves every entry deferred.
  Status OnLazyTouch(DomId dom, Gfn gfn);

  // Hypervisor::DomainDestroyHook: tearing down a streaming parent first
  // force-finishes its children's streams (no fault pokes — the destroy is
  // already committed); tearing down a streaming child cancels its stream.
  void OnDomainDestroy(DomId dom);

  // Unwinds a failed batch (every child in `children`, newest first) back
  // to the pre-hypercall state, deriving each child's undo from its p2m.
  void RollbackBatch(Domain& parent, const Batch& batch,
                     const std::vector<ChildBuild>& children);

  void CloneVcpus(const Domain& parent, Domain& child);
  void FireResume(DomId dom, bool is_child);
  // Retires one outstanding second stage of `parent_id` (completed or
  // aborted); the last one unblocks and resumes the parent.
  void RetireOutstanding(DomId parent_id);

  struct PendingChild {
    DomId parent = kDomInvalid;
    // When the notification was pushed: start of the second stage.
    SimTime pushed_at;
  };

  // Stream of one lazy child. `deferred` is fixed at commit; `cursor` walks
  // it — entries a demand fault materialised first are skipped when the
  // stream reaches them. cursor == deferred.size() ⇔ ledger is 0 ⇔ done.
  struct StreamState {
    DomId parent = kDomInvalid;
    std::vector<Gfn> deferred;
    std::size_t cursor = 0;
  };

  // A lazy clone flips the parent's private deferred pages read-only so the
  // parent's next write pushes the snapshot to the child first. When the
  // child of stream `st` dies mid-stream, hands writability back to every
  // such page no surviving sibling still defers, so the parent's ptes never
  // sit read-only over a frame nothing shares.
  void RestoreDeferredWritability(const StreamState& st);

  Hypervisor& hv_;
  CloneNotificationRing ring_;
  CloneStats stats_;

  TraceRecorder& trace_;

  Counter& m_clones_;
  Counter& m_batches_;
  Counter& m_pages_shared_;
  Counter& m_pages_shared_first_;
  Counter& m_pages_shared_again_;
  Counter& m_pages_private_copied_;
  Counter& m_pages_idc_shared_;
  Counter& m_resets_;
  Counter& m_reset_pages_restored_;
  Counter& m_explicit_cow_pages_;
  Counter& m_ring_backpressure_;
  Counter& m_rolled_back_;
  Counter& m_lazy_clones_;
  Counter& m_lazy_deferred_pages_;
  Counter& m_streamed_pages_;
  Counter& m_lazy_stream_batches_;
  Counter& m_lazy_stream_stalls_;
  Counter& m_lazy_demand_faults_;
  Gauge& g_lazy_pending_pages_;
  Histogram& m_stage1_ns_;
  Histogram& m_stage2_ns_;

  FaultPoint* f_stage1_create_;
  FaultPoint* f_stage1_memory_;
  FaultPoint* f_stage1_share_;
  FaultPoint* f_stage1_page_tables_;
  FaultPoint* f_stage1_grants_;
  FaultPoint* f_stage1_evtchns_;
  FaultPoint* f_reset_;
  FaultPoint* f_lazy_stream_;
  FaultPoint* f_lazy_demand_;

  std::vector<CloneObserver*> observers_;
  // Outstanding second-stage completions per parent.
  std::map<DomId, unsigned> outstanding_;
  std::map<DomId, PendingChild> pending_children_;

  LazyCloneConfig lazy_cfg_;
  // Active streams, keyed by child. Ordered so StreamPump's round-robin
  // visits children in ascending DomId order.
  std::map<DomId, StreamState> streaming_;
};

}  // namespace nephele

#endif  // SRC_CORE_CLONE_ENGINE_H_
