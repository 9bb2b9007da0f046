#include "src/core/clone_engine.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/units.h"

namespace nephele {

CloneEngine::CloneEngine(Hypervisor& hv, const SystemServices& services)
    : hv_(hv),
      ring_(256),
      trace_(services.trace),
      m_clones_(services.metrics.GetCounter("clone/clones_total")),
      m_batches_(services.metrics.GetCounter("clone/batches_total")),
      m_pages_shared_(services.metrics.GetCounter("clone/stage1/pages_shared")),
      m_pages_shared_first_(services.metrics.GetCounter("clone/stage1/pages_shared_first")),
      m_pages_shared_again_(services.metrics.GetCounter("clone/stage1/pages_shared_again")),
      m_pages_private_copied_(services.metrics.GetCounter("clone/stage1/pages_private_copied")),
      m_pages_idc_shared_(services.metrics.GetCounter("clone/stage1/pages_idc_shared")),
      m_resets_(services.metrics.GetCounter("clone/reset/count")),
      m_reset_pages_restored_(services.metrics.GetCounter("clone/reset/pages_restored")),
      m_explicit_cow_pages_(services.metrics.GetCounter("clone/cow/explicit_pages")),
      m_ring_backpressure_(services.metrics.GetCounter("clone/ring/backpressure")),
      m_rolled_back_(services.metrics.GetCounter("clone/rolled_back")),
      m_lazy_clones_(services.metrics.GetCounter("clone/lazy/clones")),
      m_lazy_deferred_pages_(services.metrics.GetCounter("clone/lazy/deferred_pages")),
      m_streamed_pages_(services.metrics.GetCounter("clone/streamed_pages")),
      m_lazy_stream_batches_(services.metrics.GetCounter("clone/lazy/stream_batches")),
      m_lazy_stream_stalls_(services.metrics.GetCounter("clone/lazy/stream_stalls")),
      m_lazy_demand_faults_(services.metrics.GetCounter("clone/lazy/demand_faults")),
      g_lazy_pending_pages_(services.metrics.GetGauge("clone/lazy_pending_pages")),
      m_stage1_ns_(services.metrics.GetHistogram("clone/stage1/duration_ns")),
      m_stage2_ns_(services.metrics.GetHistogram("clone/stage2/duration_ns")),
      f_stage1_create_(services.faults.GetPoint("clone/stage1/create_domain")),
      f_stage1_memory_(services.faults.GetPoint("clone/stage1/memory")),
      f_stage1_share_(services.faults.GetPoint("clone/stage1/share")),
      f_stage1_page_tables_(services.faults.GetPoint("clone/stage1/page_tables")),
      f_stage1_grants_(services.faults.GetPoint("clone/stage1/grants")),
      f_stage1_evtchns_(services.faults.GetPoint("clone/stage1/evtchns")),
      f_reset_(services.faults.GetPoint("clone/reset")),
      f_lazy_stream_(services.faults.GetPoint("lazy/stream")),
      f_lazy_demand_(services.faults.GetPoint("lazy/demand_fault")) {
  // Sampled at export time: the sum of every streaming child's deferred
  // ledger. Reaching 0 is how dashboards (and the stream-stall alarm rule)
  // see a batch finish arriving.
  g_lazy_pending_pages_.SetProvider([this] {
    std::int64_t pending = 0;
    for (const auto& [child, st] : streaming_) {
      (void)st;
      const Domain* d = hv_.FindDomain(child);
      if (d != nullptr) {
        pending += static_cast<std::int64_t>(d->lazy_deferred_pages);
      }
    }
    return pending;
  });
  // COW faults are resolved inside the hypervisor; surface them to clone
  // observers (metrics, fuzzing harnesses) through the engine.
  hv_.SetCowFaultHook([this](DomId dom, Gfn gfn, bool copied) {
    for (CloneObserver* obs : observers_) {
      obs->OnCowFault(dom, gfn, copied);
    }
  });
  // Demand path of post-copy cloning: any touch of a not-present entry (and
  // any parent write that would outrun its children's streams) lands here
  // before the regular COW machinery looks at the entry.
  hv_.SetLazyTouchHook([this](DomId dom, Gfn gfn) { return OnLazyTouch(dom, gfn); });
  hv_.SetDomainDestroyHook([this](DomId dom) { OnDomainDestroy(dom); });
}

void CloneEngine::AddObserver(CloneObserver* observer) { observers_.push_back(observer); }

void CloneEngine::RemoveObserver(CloneObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

std::size_t CloneEngine::PendingStreamPages(DomId child) const {
  if (streaming_.count(child) == 0) {
    return 0;
  }
  const Domain* d = hv_.FindDomain(child);
  return d == nullptr ? 0 : d->lazy_deferred_pages;
}

void CloneEngine::ComputeHotSet(const Domain& parent, const CloneRequest& req,
                                Batch& batch) {
  batch.lazy = true;
  for (Gfn gfn : req.hot_pages) {
    if (gfn < parent.p2m.size()) {
      batch.hot.insert(gfn);
    }
  }
  // Seed up to max_hot_pages recently-touched pages beyond the explicit
  // hint: the dirty-since-clone list first (clone-of-clone parents track
  // it), then still-writable kData pages — a page is writable exactly when
  // it saw a write since it last entered COW sharing, which makes
  // writability the touch signal for root parents and re-cloned parents
  // alike.
  std::size_t seeded = 0;
  const std::size_t cap = lazy_cfg_.max_hot_pages;
  for (Gfn gfn : parent.dirty_since_clone) {
    if (seeded >= cap) {
      break;
    }
    if (gfn < parent.p2m.size() && batch.hot.insert(gfn).second) {
      ++seeded;
    }
  }
  for (Gfn gfn = 0; gfn < parent.p2m.size() && seeded < cap; ++gfn) {
    const P2mEntry& pe = parent.p2m[gfn];
    if (pe.role == PageRole::kData && pe.writable && batch.hot.insert(gfn).second) {
      ++seeded;
    }
  }
}

void CloneEngine::MaterializePage(Domain& parent, Domain& child, Gfn gfn) {
  FrameTable& frames = hv_.frames();
  const CostModel& costs = hv_.costs();
  P2mEntry& pe = parent.p2m[gfn];
  // Stage 1 flipped the parent pte read-only when it deferred the page, so
  // the frame still holds the clone-time snapshot. Sharing it now is exactly
  // the share stage 1 skipped, at the same per-page cost.
  if (frames.IsShared(pe.mfn)) {
    (void)frames.ShareAgain(pe.mfn);
    hv_.loop().AdvanceBy(costs.page_share_again);
    ++stats_.pages_shared_again;
    m_pages_shared_again_.Increment();
  } else {
    (void)frames.ShareFirst(pe.mfn);
    hv_.loop().AdvanceBy(costs.page_share_first);
    ++stats_.pages_shared_first;
    m_pages_shared_first_.Increment();
  }
  m_pages_shared_.Increment();
  child.p2m[gfn].mfn = pe.mfn;
  // writable stays false: from here on the entry COWs like any shared page.
  if (child.lazy_deferred_pages > 0) {
    --child.lazy_deferred_pages;
  }
}

Status CloneEngine::RunStreamBatch(DomId child_id, std::size_t* out_pages) {
  if (out_pages != nullptr) {
    *out_pages = 0;
  }
  auto it = streaming_.find(child_id);
  if (it == streaming_.end()) {
    return Status::Ok();
  }
  StreamState& st = it->second;
  Domain* child = hv_.FindDomain(child_id);
  Domain* parent = hv_.FindDomain(st.parent);
  if (child == nullptr || parent == nullptr) {
    // Defensive only: the destroy hook retires streams before either side
    // of one can vanish.
    streaming_.erase(it);
    return Status::Ok();
  }
  Status batch_status = f_lazy_stream_->Poke();
  if (!batch_status.ok()) {
    // A stall, not a death: nothing was streamed, the child stays streaming
    // and the next batch (tick, pump or FinishStreaming retry) resumes.
    m_lazy_stream_stalls_.Increment();
    return batch_status;
  }
  hv_.loop().AdvanceBy(hv_.costs().lazy_stream_batch_fixed);
  m_lazy_stream_batches_.Increment();
  const std::size_t batch_pages =
      lazy_cfg_.stream_batch_pages == 0 ? 1 : lazy_cfg_.stream_batch_pages;
  std::size_t done = 0;
  while (done < batch_pages && st.cursor < st.deferred.size()) {
    Gfn gfn = st.deferred[st.cursor++];
    if (child->p2m[gfn].mfn != kInvalidMfn) {
      continue;  // a demand fault got here first
    }
    MaterializePage(*parent, *child, gfn);
    ++done;
    ++stats_.pages_streamed;
    m_streamed_pages_.Increment();
  }
  if (out_pages != nullptr) {
    *out_pages = done;
  }
  if (child->lazy_deferred_pages == 0) {
    streaming_.erase(it);
  }
  return Status::Ok();
}

Status CloneEngine::FinishStreaming(DomId child) {
  while (streaming_.count(child) > 0) {
    NEPHELE_RETURN_IF_ERROR(RunStreamBatch(child, nullptr));
  }
  return Status::Ok();
}

std::size_t CloneEngine::StreamPump(std::size_t batches) {
  std::size_t total = 0;
  DomId next = 0;
  for (std::size_t b = 0; b < batches && !streaming_.empty(); ++b) {
    auto it = streaming_.lower_bound(next);
    if (it == streaming_.end()) {
      it = streaming_.begin();
    }
    const DomId child = it->first;
    next = static_cast<DomId>(child + 1);
    std::size_t pages = 0;
    (void)RunStreamBatch(child, &pages);  // a stall consumes the batch slot
    total += pages;
  }
  return total;
}

void CloneEngine::ScheduleStreamTick(DomId child) {
  hv_.loop().Post(lazy_cfg_.stream_interval, [this, child] {
    if (streaming_.count(child) == 0) {
      return;  // finished (or torn down) before the tick fired
    }
    (void)RunStreamBatch(child, nullptr);
    if (streaming_.count(child) > 0) {
      // Re-arm, including after a stall: injected stream faults model
      // transient backend pressure, so the prefetcher retries.
      ScheduleStreamTick(child);
    }
  });
}

Status CloneEngine::OnLazyTouch(DomId dom, Gfn gfn) {
  // Case 1: a streaming child touches its own not-present entry — a demand
  // fault. The page jumps the stream queue and materialises on the spot;
  // the caller's COW machinery then treats it like any shared page.
  auto it = streaming_.find(dom);
  if (it != streaming_.end()) {
    Domain* child = hv_.FindDomain(dom);
    Domain* parent = hv_.FindDomain(it->second.parent);
    if (child != nullptr && parent != nullptr && gfn < child->p2m.size() &&
        child->p2m[gfn].mfn == kInvalidMfn) {
      NEPHELE_RETURN_IF_ERROR(f_lazy_demand_->Poke());
      hv_.loop().AdvanceBy(hv_.costs().lazy_demand_fault_fixed);
      MaterializePage(*parent, *child, gfn);
      ++stats_.lazy_demand_faults;
      m_lazy_demand_faults_.Increment();
      if (child->lazy_deferred_pages == 0) {
        streaming_.erase(it);
      }
      return Status::Ok();
    }
  }
  // Case 2: a parent is about to COW-write a page its streaming children
  // still defer. The write would change the frame the children read through,
  // so the clone-time snapshot is pushed to them first. A fault here fails
  // the parent's write with everything still deferred; a retry resumes with
  // whatever was already pushed.
  Domain* parent = hv_.FindDomain(dom);
  if (parent == nullptr) {
    return Status::Ok();
  }
  for (auto sit = streaming_.begin(); sit != streaming_.end();) {
    if (sit->second.parent != dom) {
      ++sit;
      continue;
    }
    Domain* child = hv_.FindDomain(sit->first);
    if (child == nullptr || gfn >= child->p2m.size() ||
        child->p2m[gfn].mfn != kInvalidMfn) {
      ++sit;
      continue;
    }
    NEPHELE_RETURN_IF_ERROR(f_lazy_demand_->Poke());
    hv_.loop().AdvanceBy(hv_.costs().lazy_demand_fault_fixed);
    MaterializePage(*parent, *child, gfn);
    ++stats_.lazy_demand_faults;
    m_lazy_demand_faults_.Increment();
    if (child->lazy_deferred_pages == 0) {
      sit = streaming_.erase(sit);
    } else {
      ++sit;
    }
  }
  return Status::Ok();
}

void CloneEngine::RestoreDeferredWritability(const StreamState& st) {
  Domain* parent = hv_.FindDomain(st.parent);
  if (parent == nullptr) {
    return;
  }
  const FrameTable& frames = hv_.frames();
  for (std::size_t i = st.cursor; i < st.deferred.size(); ++i) {
    const Gfn gfn = st.deferred[i];
    P2mEntry& pe = parent->p2m[gfn];
    // Only a pte whose frame nothing shares (no materialisation, no other
    // clone) was read-only for the snapshot alone; a shared frame COWs like
    // any other.
    if (pe.writable || pe.mfn == kInvalidMfn || frames.IsShared(pe.mfn)) {
      continue;
    }
    bool still_deferred = false;
    for (const auto& [other, ost] : streaming_) {
      const Domain* sibling = hv_.FindDomain(other);
      if (ost.parent == st.parent && sibling != nullptr && gfn < sibling->p2m.size() &&
          sibling->p2m[gfn].mfn == kInvalidMfn) {
        still_deferred = true;
        break;
      }
    }
    if (!still_deferred) {
      pe.writable = true;
    }
  }
}

void CloneEngine::OnDomainDestroy(DomId dom) {
  // A child destroyed before its second stage finished can never complete:
  // retire it like an abort so its parent does not stay paused forever.
  if (pending_children_.count(dom) > 0) {
    (void)CloneAborted(dom);
  }
  // A dying child abandons its stream: its not-present entries hold no
  // frames, so there is nothing to unwind.
  if (auto own = streaming_.find(dom); own != streaming_.end()) {
    StreamState st = std::move(own->second);
    streaming_.erase(own);
    RestoreDeferredWritability(st);
  }
  // A dying parent is the stream source of its lazy children: everything
  // they still defer materialises now, before the parent's frames go away.
  // The destruction is already committed, so no fault pokes — this path
  // cannot fail.
  Domain* parent = hv_.FindDomain(dom);
  for (auto it = streaming_.begin(); it != streaming_.end();) {
    if (it->second.parent != dom) {
      ++it;
      continue;
    }
    Domain* child = hv_.FindDomain(it->first);
    if (child != nullptr && parent != nullptr) {
      StreamState& st = it->second;
      while (st.cursor < st.deferred.size()) {
        Gfn gfn = st.deferred[st.cursor++];
        if (child->p2m[gfn].mfn != kInvalidMfn) {
          continue;
        }
        MaterializePage(*parent, *child, gfn);
        ++stats_.pages_streamed;
        m_streamed_pages_.Increment();
      }
    }
    it = streaming_.erase(it);
  }
}

void CloneEngine::CloneVcpus(const Domain& parent, Domain& child) {
  child.vcpus = parent.vcpus;
  for (auto& v : child.vcpus) {
    // The hypercall return value: 0 for the parent, 1 for any child
    // (Sec. 5.2).
    v.rax = 1;
  }
}

Status CloneEngine::BuildChild(Domain& parent, Batch& batch, ChildBuild& cb) {
  const CostModel& costs = hv_.costs();
  FrameTable& frames = hv_.frames();
  cb.lane += costs.clone_stage1_fixed;
  // struct domain initialisation by copy+edit of the parent's (Sec. 5).
  NEPHELE_RETURN_IF_ERROR(f_stage1_create_->Poke());
  NEPHELE_ASSIGN_OR_RETURN(DomId child_id,
                           hv_.CreateDomain(/*name=*/"", static_cast<int>(parent.vcpus.size())));
  // From here on the child exists: record it before anything can fail so the
  // batch rollback always sees it.
  cb.id = child_id;
  cb.child = hv_.FindDomain(child_id);
  Domain& child = *cb.child;
  const bool first = batch.first_child == kDomInvalid;
  if (first) {
    batch.first_child = child_id;
  }

  child.parent = parent.id;
  child.family_root = parent.family_root;
  child.cloning_enabled = parent.cloning_enabled;
  child.max_clones = parent.max_clones;
  child.start_info_gfn = parent.start_info_gfn;
  child.console_ring_gfn = parent.console_ring_gfn;
  child.xenstore_ring_gfn = parent.xenstore_ring_gfn;
  child.track_dirty = true;
  child.dirty_since_clone.clear();
  parent.children.push_back(child_id);
  ++parent.clones_created;

  CloneVcpus(parent, child);
  cb.lane += costs.vcpu_clone * static_cast<double>(child.vcpus.size());

  // Guest memory, one pass in gfn order. Every page lands in the child's
  // p2m as soon as it is built, so the p2m always describes exactly what the
  // child holds and rollback can undo a half-built child from it.
  NEPHELE_RETURN_IF_ERROR(f_stage1_memory_->Poke());
  child.p2m.reserve(parent.p2m.size());
  for (Gfn gfn = 0; gfn < parent.p2m.size(); ++gfn) {
    P2mEntry& pe = parent.p2m[gfn];
    if (IsPrivateRole(pe.role)) {
      // Private page: duplicated (or rewritten) for the child (Sec. 4.1).
      NEPHELE_ASSIGN_OR_RETURN(Mfn mfn, hv_.StageGuestFrame(child_id));
      const bool has_data = frames.info(pe.mfn).data != nullptr;
      if (has_data) {
        frames.CopyPage(pe.mfn, mfn);
      }
      child.p2m.push_back(P2mEntry{mfn, pe.role, /*writable=*/true});
      cb.lane += costs.frame_alloc + (has_data ? costs.page_copy : costs.private_page_rewrite);
      ++stats_.pages_private_copied;
      m_pages_private_copied_.Increment();
      continue;
    }
    if (batch.lazy && pe.role == PageRole::kData && batch.hot.count(gfn) == 0) {
      // Deferred: a not-present entry — no share, no fault poke, no lane
      // cost. That skipped cost is the entire time-to-first-request win.
      // The parent pte still turns read-only below, so a parent write
      // demand-pushes the page to the children before changing it (they
      // must keep seeing the clone-time snapshot).
      child.p2m.push_back(P2mEntry{kInvalidMfn, pe.role, /*writable=*/false});
      ++child.lazy_deferred_pages;
      if (first) {
        batch.deferred_gfns.push_back(gfn);
      }
      ++stats_.pages_deferred;
      m_lazy_deferred_pages_.Increment();
    } else {
      NEPHELE_RETURN_IF_ERROR(f_stage1_share_->Poke());
      const bool again = frames.IsShared(pe.mfn);
      if (again) {
        (void)frames.ShareAgain(pe.mfn);
        cb.lane += costs.page_share_again;
      } else {
        (void)frames.ShareFirst(pe.mfn);
        batch.first_shared.insert(pe.mfn);
        cb.lane += costs.page_share_first;
      }
      if (pe.role == PageRole::kIdcShared) {
        // IDC regions stay writable on both sides: true sharing, no COW
        // (Sec. 5.2.2 — ownership still moves to dom_cow like any shared page).
        child.p2m.push_back(P2mEntry{pe.mfn, pe.role, /*writable=*/true});
        ++stats_.pages_idc_shared;
        m_pages_idc_shared_.Increment();
        continue;
      }
      child.p2m.push_back(P2mEntry{pe.mfn, pe.role, /*writable=*/false});
      if (again) {
        ++stats_.pages_shared_again;
        m_pages_shared_again_.Increment();
      } else {
        ++stats_.pages_shared_first;
        m_pages_shared_first_.Increment();
      }
      m_pages_shared_.Increment();
    }
    // Regular memory is shared copy-on-write: writable parent pages turn
    // read-only and COW on the next write by either side.
    if (pe.writable) {
      batch.writable_flips.push_back(gfn);
      pe.writable = false;
    }
  }

  // Private page tables and p2m map (dominant cost for large guests;
  // Sec. 4.1). Frames land on the child's page_table_frames/p2m_frames
  // lists and are returned by DestroyDomain.
  NEPHELE_RETURN_IF_ERROR(f_stage1_page_tables_->Poke());
  const std::size_t pt_pages = PageTablePagesFor(parent.p2m.size());
  for (std::size_t i = 0; i < pt_pages; ++i) {
    NEPHELE_ASSIGN_OR_RETURN(Mfn mfn, hv_.StageGuestFrame(child_id));
    child.page_table_frames.push_back(mfn);
    cb.lane += costs.frame_alloc + costs.private_page_rewrite;
  }
  const std::size_t p2m_pages =
      std::max<std::size_t>(1, (parent.p2m.size() * 4 + kPageSize - 1) / kPageSize);
  for (std::size_t i = 0; i < p2m_pages; ++i) {
    NEPHELE_ASSIGN_OR_RETURN(Mfn mfn, hv_.StageGuestFrame(child_id));
    child.p2m_frames.push_back(mfn);
    cb.lane += costs.frame_alloc;
  }
  NEPHELE_RETURN_IF_ERROR(f_stage1_grants_->Poke());
  cb.lane +=
      costs.grant_entry_clone * static_cast<double>(parent.grants.active_entries());
  NEPHELE_RETURN_IF_ERROR(f_stage1_evtchns_->Poke());
  cb.lane += costs.evtchn_clone * static_cast<double>(parent.evtchns.active_ports());

  // Both table pokes passed: a failing child never holds cloned tables.
  child.grants = parent.grants.CloneForChild();
  child.evtchns = parent.evtchns.CloneForChild();
  // IDC fix-up (Sec. 5.2.2): "On creation, a clone is implicitly bound to
  // all the IDC event channels of its parent." The first child's copy of
  // each kDomChild port becomes its end of an interdomain channel to the
  // parent; later children connect to the first child. The parent-side half
  // of the fix-up is applied at commit.
  const DomId bind_to = first ? parent.id : batch.first_child;
  for (EvtchnPort p = 1; p < child.evtchns.used_port_limit(); ++p) {
    EvtchnEntry& ce = child.evtchns.mutable_entry(p);
    if (ce.idc && ce.state == EvtchnState::kUnbound && ce.remote_dom == kDomChild) {
      ce.state = EvtchnState::kInterdomain;
      ce.remote_dom = bind_to;
      ce.remote_port = p;
    }
  }
  return Status::Ok();
}

void CloneEngine::RollbackBatch(Domain& parent, const Batch& batch,
                                const std::vector<ChildBuild>& children) {
  FrameTable& frames = hv_.frames();
  // Newest child first, so by the time the first child unwinds it holds the
  // last clone reference on every frame this batch shared — first-shared
  // frames are then back at refcount 2 (parent + first child) and Unshare
  // restores private parent ownership exactly.
  for (auto it = children.rbegin(); it != children.rend(); ++it) {
    const ChildBuild& cb = *it;
    if (cb.id == kDomInvalid) {
      continue;  // create_domain failed: this child never existed
    }
    Domain& child = *cb.child;
    // Newest p2m entry first: a re-share presupposes the first share that
    // precedes it, and private frames go back to the free list in reverse
    // allocation order.
    for (auto pit = child.p2m.rbegin(); pit != child.p2m.rend(); ++pit) {
      if (pit->mfn == kInvalidMfn) {
        continue;  // deferred lazy entry: no frame, no share ref to undo
      }
      if (IsPrivateRole(pit->role)) {
        (void)frames.Release(pit->mfn);
        continue;
      }
      const bool shared_by_this_batch = cb.id == batch.first_child &&
                                        batch.first_shared.count(pit->mfn) > 0 &&
                                        frames.info(pit->mfn).refcount == 2;
      if (shared_by_this_batch) {
        (void)frames.Unshare(pit->mfn, parent.id);
      } else {
        (void)frames.Release(pit->mfn);
      }
    }
    // Every guest frame was already returned above; clear the p2m so
    // DestroyDomain only releases the page-table and p2m-map frames it
    // still tracks (a double release would corrupt the free list).
    child.p2m.clear();
    child.lazy_deferred_pages = 0;
    (void)hv_.DestroyDomain(cb.id);
    if (parent.clones_created > 0) {
      --parent.clones_created;
    }
    for (CloneObserver* obs : observers_) {
      obs->OnCloneAborted(parent.id, cb.id);
    }
  }
  // Restore the parent ptes this batch flipped read-only.
  for (Gfn gfn : batch.writable_flips) {
    parent.p2m[gfn].writable = true;
  }
}

Result<std::vector<DomId>> CloneEngine::Clone(const CloneRequest& req) {
  const DomId caller = req.caller;
  const DomId parent_id = req.parent;
  const Mfn start_info_mfn = req.start_info_mfn;
  const unsigned num_clones = req.num_children;
  hv_.ChargeHypercall();
  if (!hv_.cloning_globally_enabled()) {
    return ErrFailedPrecondition("cloning disabled globally");
  }
  if (caller != parent_id && caller != kDom0) {
    return ErrPermissionDenied("only the guest itself or Dom0 may clone it");
  }
  Domain* parent = hv_.FindDomain(parent_id);
  if (parent == nullptr) {
    return ErrNotFound("no such domain");
  }
  if (!parent->cloning_enabled) {
    return ErrPermissionDenied("cloning not enabled for this domain");
  }
  if (parent->clones_created + num_clones > parent->max_clones) {
    return ErrResourceExhausted("max_clones exceeded");
  }
  if (num_clones == 0) {
    return ErrInvalidArgument("num_clones must be positive");
  }
  // Interface check: the caller passes the machine address of its
  // start_info page (Sec. 5.1).
  if (parent->start_info_gfn == kInvalidGfn ||
      parent->p2m[parent->start_info_gfn].mfn != start_info_mfn) {
    return ErrInvalidArgument("start_info mfn mismatch");
  }
  if (ring_.size() + num_clones > ring_.capacity()) {
    // Backpressure: the notification ring is full; the first stage stalls
    // (Sec. 5). Callers retry after xencloned drains.
    m_ring_backpressure_.Increment();
    return ErrUnavailable("clone notification ring full");
  }
  // A streaming parent is itself only partially mapped — its deferred
  // entries hold no frame to share or copy from yet. Its own stream must
  // finish before it can serve as a clone source; a stall there fails the
  // clone with the stream's error and no side effects.
  if (IsStreaming(parent_id)) {
    NEPHELE_RETURN_IF_ERROR(FinishStreaming(parent_id));
  }
  m_batches_.Increment();
  for (CloneObserver* obs : observers_) {
    obs->OnCloneStart(parent_id, num_clones);
  }
  const SimTime stage1_start = hv_.loop().Now();
  TraceSpan span = trace_.BeginSpan("clone/stage1");
  span.AddArg("parent", static_cast<std::int64_t>(parent_id));
  span.AddArg("num_clones", static_cast<std::int64_t>(num_clones));

  // The parent is paused for the whole operation and stays paused until the
  // second stage completes for all children (Sec. 5).
  (void)hv_.PauseDomain(parent_id);
  parent->blocked_in_clone = true;

  Batch batch;
  if (req.lazy) {
    ComputeHotSet(*parent, req, batch);
  }
  std::vector<ChildBuild> builds;
  builds.reserve(num_clones);
  Status failure = Status::Ok();
  for (unsigned i = 0; i < num_clones && failure.ok(); ++i) {
    failure = BuildChild(*parent, batch, builds.emplace_back());
  }

  // The batch costs its slowest child in virtual time: the modelled
  // hypervisor builds the children of one CLONEOP independently of each
  // other on the host's CPUs. A single clone is charged its exact serial
  // cost; a failed batch charges the work built up to the failure.
  std::vector<SimDuration> lanes;
  lanes.reserve(builds.size());
  for (const ChildBuild& cb : builds) {
    lanes.push_back(cb.lane);
  }
  hv_.loop().AdvanceByCriticalPath(lanes);

  if (!failure.ok()) {
    // A failure anywhere unwinds every built child and resumes the
    // parent, so a failed CLONEOP is side-effect free (the hypercall either
    // produces num_clones runnable children or none).
    RollbackBatch(*parent, batch, builds);
    ++stats_.rollbacks;
    m_rolled_back_.Increment();
    parent->blocked_in_clone = false;
    (void)hv_.UnpauseDomain(parent_id);
    return failure;
  }

  // Commit phase, in child-index order; nothing below can fail.
  // Parent half of the IDC event-channel fix-up: its unbound kDomChild
  // ports connect to the first child (which keeps serving as the receive
  // end for later ones).
  for (EvtchnPort p = 1; p < parent->evtchns.used_port_limit(); ++p) {
    EvtchnEntry& pe = parent->evtchns.mutable_entry(p);
    if (pe.idc && pe.state == EvtchnState::kUnbound && pe.remote_dom == kDomChild) {
      pe.state = EvtchnState::kInterdomain;
      pe.remote_dom = batch.first_child;
      pe.remote_port = p;
    }
  }
  // Publish the children to xencloned and to the caller.
  std::vector<DomId> children;
  children.reserve(num_clones);
  for (const ChildBuild& cb : builds) {
    children.push_back(cb.id);
    pending_children_[cb.id] = PendingChild{parent_id, hv_.loop().Now()};
    ring_.Push(CloneNotification{parent_id, cb.id,
                                 parent->p2m[parent->start_info_gfn].mfn,
                                 cb.child->p2m[parent->start_info_gfn].mfn});
    (void)hv_.RaiseVirq(kDom0, Virq::kCloned);
    ++stats_.clones;
    m_clones_.Increment();
  }
  // Register the lazy streams: each child owes batch.deferred_gfns, and the
  // background prefetcher starts ticking (unless manual mode). A lazy batch
  // with nothing deferred (tiny guest, everything hot) is already complete.
  if (batch.lazy) {
    for (const ChildBuild& cb : builds) {
      ++stats_.lazy_clones;
      m_lazy_clones_.Increment();
      if (!batch.deferred_gfns.empty()) {
        streaming_.emplace(cb.id, StreamState{parent_id, batch.deferred_gfns, 0});
        if (lazy_cfg_.auto_stream) {
          ScheduleStreamTick(cb.id);
        }
      }
    }
  }
  outstanding_[parent_id] += num_clones;
  // Parent rax = 0: success, parent side.
  for (auto& v : parent->vcpus) {
    v.rax = 0;
  }
  m_stage1_ns_.Observe((hv_.loop().Now() - stage1_start).ns());
  return children;
}

Status CloneEngine::CloneAborted(DomId child) {
  hv_.ChargeHypercall();
  auto it = pending_children_.find(child);
  if (it == pending_children_.end()) {
    return ErrNotFound("no pending clone for this child");
  }
  DomId parent_id = it->second.parent;
  pending_children_.erase(it);
  ++stats_.rollbacks;
  m_rolled_back_.Increment();

  for (CloneObserver* obs : observers_) {
    obs->OnCloneAborted(parent_id, child);
  }

  // An aborted child retires its outstanding slot exactly like a completed
  // one: the parent must not stay paused forever because one clone of a
  // batch failed.
  RetireOutstanding(parent_id);
  return Status::Ok();
}

Status CloneEngine::CloneCompletion(DomId child) {
  hv_.ChargeHypercall();
  auto it = pending_children_.find(child);
  if (it == pending_children_.end()) {
    return ErrNotFound("no pending clone for this child");
  }
  DomId parent_id = it->second.parent;
  m_stage2_ns_.Observe((hv_.loop().Now() - it->second.pushed_at).ns());
  pending_children_.erase(it);

  for (CloneObserver* obs : observers_) {
    obs->OnCloneComplete(parent_id, child);
  }

  Domain* child_dom = hv_.FindDomain(child);
  if (child_dom != nullptr && child_dom->state != DomainState::kPaused) {
    // Children are resumed unless their configuration keeps them paused;
    // xencloned pauses them explicitly beforehand in that case.
    (void)hv_.UnpauseDomain(child);
    FireResume(child, /*is_child=*/true);
  }

  RetireOutstanding(parent_id);
  return Status::Ok();
}

void CloneEngine::RetireOutstanding(DomId parent_id) {
  auto out = outstanding_.find(parent_id);
  if (out == outstanding_.end() || --out->second != 0) {
    return;
  }
  outstanding_.erase(out);
  Domain* parent = hv_.FindDomain(parent_id);
  if (parent != nullptr) {
    parent->blocked_in_clone = false;
    (void)hv_.UnpauseDomain(parent_id);
    stats_.last_parent_resume = hv_.loop().Now();
    FireResume(parent_id, /*is_child=*/false);
  }
}

void CloneEngine::FireResume(DomId dom, bool is_child) {
  // Observers are read at fire time, so registrations between the resume
  // decision and its delivery are honoured — the engine outlives the loop.
  hv_.loop().Post(SimDuration::Nanos(0), [this, dom, is_child] {
    for (CloneObserver* obs : observers_) {
      obs->OnResume(dom, is_child);
    }
  });
}

Status CloneEngine::CloneCow(DomId caller, DomId dom, Gfn gfn, std::size_t count) {
  hv_.ChargeHypercall();
  if (caller != dom && caller != kDom0) {
    return ErrPermissionDenied("clone_cow: not owner or Dom0");
  }
  const Domain* d = hv_.FindDomain(dom);
  if (d == nullptr) {
    return ErrNotFound("clone_cow: no such domain");
  }
  // Bound the whole range up front: `gfn + i` wraps at 2^32 for hostile
  // counts, which would otherwise loop (and resolve COW) astronomically.
  if (gfn > d->p2m.size() || count > d->p2m.size() - gfn) {
    return ErrOutOfRange("clone_cow: range outside p2m");
  }
  for (std::size_t i = 0; i < count; ++i) {
    NEPHELE_RETURN_IF_ERROR(hv_.ForceCowResolve(dom, gfn + static_cast<Gfn>(i)));
    ++stats_.explicit_cow_pages;
    m_explicit_cow_pages_.Increment();
  }
  return Status::Ok();
}

Result<std::size_t> CloneEngine::CloneReset(DomId caller, DomId child_id) {
  hv_.ChargeHypercall();
  if (caller != kDom0 && caller != child_id) {
    return ErrPermissionDenied("clone_reset: not Dom0");
  }
  Domain* child = hv_.FindDomain(child_id);
  if (child == nullptr) {
    return ErrNotFound("no such domain");
  }
  if (child->parent == kDomInvalid) {
    return ErrFailedPrecondition("domain is not a clone");
  }
  Domain* parent = hv_.FindDomain(child->parent);
  if (parent == nullptr) {
    return ErrFailedPrecondition("parent gone");
  }
  // Post-copy interaction: a half-streamed child resets to its post-clone
  // state only once that state fully exists, and a target with streaming
  // children must not swap out frames they still read through. Finish both
  // directions first; a stream stall surfaces as the reset's error with the
  // partial stream progress kept.
  NEPHELE_RETURN_IF_ERROR(FinishStreaming(child_id));
  std::vector<DomId> streaming_children;
  for (const auto& [c, st] : streaming_) {
    if (st.parent == child_id) {
      streaming_children.push_back(c);
    }
  }
  for (DomId c : streaming_children) {
    NEPHELE_RETURN_IF_ERROR(FinishStreaming(c));
  }
  NEPHELE_RETURN_IF_ERROR(f_reset_->Poke());
  FrameTable& frames = hv_.frames();
  hv_.loop().AdvanceBy(hv_.costs().clone_reset_fixed);

  // Per-page restore is re-share then release, so a failure between the two
  // never leaves a page referencing a freed frame. On a mid-loop error the
  // already-restored prefix is dropped from the dirty list and the rest is
  // kept: a retry resumes exactly where this attempt stopped.
  std::vector<Gfn>& dirty = child->dirty_since_clone;
  std::size_t restored = 0;
  Status page_status = Status::Ok();
  for (Gfn gfn : dirty) {
    P2mEntry& ce = child->p2m[gfn];
    P2mEntry& pe = parent->p2m[gfn];
    if (frames.IsShared(pe.mfn)) {
      page_status = frames.ShareAgain(pe.mfn);
    } else {
      page_status = frames.ShareFirst(pe.mfn);
      if (page_status.ok()) {
        pe.writable = false;
      }
    }
    if (!page_status.ok()) {
      break;
    }
    (void)frames.Release(ce.mfn);
    ce.mfn = pe.mfn;
    ce.writable = false;
    hv_.loop().AdvanceBy(hv_.costs().clone_reset_per_page);
    ++restored;
  }
  if (!page_status.ok()) {
    dirty.erase(dirty.begin(), dirty.begin() + static_cast<std::ptrdiff_t>(restored));
    stats_.reset_pages_restored += restored;
    m_reset_pages_restored_.Increment(restored);
    return page_status;
  }
  dirty.clear();
  ++stats_.resets;
  stats_.reset_pages_restored += restored;
  m_resets_.Increment();
  m_reset_pages_restored_.Increment(restored);
  return restored;
}

Status CloneEngine::EnableGlobal(DomId caller, bool enabled) {
  hv_.ChargeHypercall();
  if (caller != kDom0) {
    return ErrPermissionDenied("only Dom0 may toggle global cloning");
  }
  hv_.SetCloningGloballyEnabled(enabled);
  return Status::Ok();
}

}  // namespace nephele
