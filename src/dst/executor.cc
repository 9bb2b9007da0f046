#include "src/dst/executor.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "src/core/system.h"
#include "src/devices/hostfs.h"
#include "src/devices/p9.h"
#include "src/dst/reference_model.h"
#include "src/hypervisor/invariants.h"
#include "src/sched/scheduler.h"
#include "src/xenstore/path.h"

namespace nephele {

std::uint64_t DstHash64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

using Model = ReferenceModel;

// Pages one manual prefetcher batch streams. Streams only advance on the
// explicit `stream` op (or when an op must finish one), so every op sits in
// a deterministic mid-stream window.
constexpr std::size_t kStreamBatchPages = 128;

// The counters whose deltas the model predicts on cleanly modelled ops.
// While any fault point is armed, or after an op with unmodelled side
// effects, the executor re-baselines from the registry instead of comparing.
constexpr const char* kTrackedCounters[] = {
    "clone/clones_total",         "clone/batches_total",
    "clone/reset/count",          "clone/reset/pages_restored",
    "clone/rolled_back",          "xencloned/clones_completed",
    "xencloned/clones_aborted",   "toolstack/domains_booted",
    "toolstack/domains_restored", "toolstack/domains_destroyed",
    "hypervisor/domains/created", "hypervisor/domains/destroyed",
    "clone/lazy/clones",          "clone/streamed_pages",
    "clone/lazy/demand_faults",
};

std::string EncodeDevioValue(std::uint32_t v) {
  // Letters only, so xs_clone's domid-rewriting heuristics can never touch
  // the value and the model's verbatim-copy expectation holds.
  std::string out = "v";
  do {
    out.push_back(static_cast<char>('a' + v % 10));
    v /= 10;
  } while (v != 0);
  return out;
}

class Executor {
 public:
  Executor(const Tape& tape, const RunOptions& options) : tape_(tape), options_(options) {}

  RunResult Run();

 private:
  void ExecuteOp(const Op& op);

  // --- Selector resolution. ---
  // Every 4th selector value resolves hostile: Dom0, a destroyed domain id,
  // or the kDomChild pseudo-domain. An empty live set is always hostile.
  // Otherwise `4k` names the k-th live domain in creation order.
  DomId ResolveDom(std::uint32_t sel) const {
    if (live_.empty() || sel % 4 == 3) {
      switch ((sel / 4) % 3) {
        case 0:
          return kDom0;
        case 1:
          return dead_.empty() ? static_cast<DomId>(4242) : dead_[(sel / 16) % dead_.size()];
        default:
          return kDomChild;
      }
    }
    return live_[(sel / 4) % live_.size()];
  }
  // Boundary-heavy gfn menu. Plain-heap entries start past the tracked cell
  // pages so only cell ops and touch/cow ranges ever alias a cell.
  Gfn GfnMenu(std::uint32_t c) const {
    switch (c % 6) {
      case 0:
        return 0;  // image text page
      case 1:
        return heap0_ + static_cast<Gfn>(Model::kTrackedPages + (c / 8) % 8);
      case 2:
        return static_cast<Gfn>(guest_pages_ - 1);
      case 3:
        return static_cast<Gfn>(guest_pages_);  // one past the end
      case 4:
        return static_cast<Gfn>(guest_pages_) + c;  // far out of range
      default:
        return 0xFFFFFFF0u;  // gfn + count wrap bait
    }
  }
  static std::size_t OffMenu(std::uint32_t n) {
    constexpr std::size_t kMenu[] = {0, 1, 64, 4095, 4096, 4097, static_cast<std::size_t>(-2)};
    return kMenu[n % 7];
  }
  static std::size_t LenMenu(std::uint32_t v) {
    constexpr std::size_t kMenu[] = {0, 1, 2, 4096, 4097, static_cast<std::size_t>(-1) / 2};
    return kMenu[v % 6];
  }
  static std::size_t CountMenu(std::uint32_t n) {
    constexpr std::size_t kMenu[] = {0, 1, 8, 1024, 70000, 0xFFFFFFFFu};
    return kMenu[n % 6];
  }
  // Stale-handle menus: every 4th choice invents a handle out of thin air.
  std::pair<DomId, GrantRef> GrantHandle(std::uint32_t c) const {
    if (grants_.empty() || c % 4 == 3) {
      return {ResolveDom(c / 4), static_cast<GrantRef>((c / 16) % 2048)};
    }
    return grants_[c % grants_.size()];
  }
  std::pair<DomId, EvtchnPort> PortHandle(std::uint32_t c) const {
    if (ports_.empty() || c % 4 == 3) {
      return {ResolveDom(c / 4), static_cast<EvtchnPort>((c / 16) % 1500)};
    }
    return ports_[c % ports_.size()];
  }
  std::pair<DomId, std::uint32_t> FidHandle(std::uint32_t c, DomId dom) const {
    if (fids_.empty() || c % 4 == 3) {
      return {dom, 9999 + c % 7};
    }
    return fids_[c % fids_.size()];
  }

  Mfn StartInfoMfn(DomId dom) const {
    const Domain* d = sys_->hypervisor().FindDomain(dom);
    if (d == nullptr || d->start_info_gfn == kInvalidGfn || d->start_info_gfn >= d->p2m.size()) {
      return kInvalidMfn;
    }
    return d->p2m[d->start_info_gfn].mfn;
  }
  Gfn CellGfn(std::uint32_t slot) const {
    return heap0_ + static_cast<Gfn>(Model::SlotPage(slot));
  }
  bool Modelled(DomId dom) const { return model_.Find(dom) != nullptr; }

  // --- Post-copy predictions. The engine counts every hook
  // materialisation — the writer's own fault and parent-write pushes — in
  // clone/lazy/demand_faults; mirror its decision by peeking p2m presence
  // before the op runs. ---
  std::size_t PredictDemandFaults(DomId dom, Gfn gfn) const {
    const CloneEngine& engine = sys_->clone_engine();
    const Domain* d = sys_->hypervisor().FindDomain(dom);
    if (d == nullptr || gfn >= d->p2m.size()) {
      return 0;
    }
    if (engine.IsStreaming(dom) && d->p2m[gfn].mfn == kInvalidMfn) {
      return 1;  // the writer demand-faults its own deferred page
    }
    // A parent write pushes the pre-write frame to every streaming child
    // still deferring this gfn, one demand fault each.
    std::size_t pushes = 0;
    for (DomId child : live_) {
      const Domain* c = sys_->hypervisor().FindDomain(child);
      if (c != nullptr && c->parent == dom && engine.IsStreaming(child) &&
          gfn < c->p2m.size() && c->p2m[gfn].mfn == kInvalidMfn) {
        ++pushes;
      }
    }
    return pushes;
  }
  // Pages force-streamed when `dom`'s streaming children must finish
  // (clone_reset of dom, destroy of dom).
  std::size_t PendingChildStreamPages(DomId dom) const {
    std::size_t pending = 0;
    for (DomId child : live_) {
      const Domain* c = sys_->hypervisor().FindDomain(child);
      if (c != nullptr && c->parent == dom) {
        pending += sys_->clone_engine().PendingStreamPages(child);
      }
    }
    return pending;
  }

  // --- Model maintenance. ---
  // Re-reads `dom`'s tracked ptes into the model, and its cells unless
  // `ptes_only`.
  void Observe(DomId dom, bool ptes_only = false) {
    const Model::DomainModel* m = model_.Find(dom);
    const Domain* d = sys_->hypervisor().FindDomain(dom);
    if (m == nullptr || d == nullptr) {
      return;
    }
    std::array<std::uint8_t, Model::kCells> cells = m->cells;
    for (std::uint32_t slot = 0; slot < Model::kCells && !ptes_only; ++slot) {
      (void)sys_->hypervisor().ReadGuestPage(dom, CellGfn(slot), Model::SlotOffset(slot),
                                             &cells[slot], 1);
    }
    std::array<bool, Model::kTrackedPages> writable = m->writable;
    for (std::size_t page = 0; page < Model::kTrackedPages; ++page) {
      writable[page] = d->p2m[heap0_ + page].writable;
    }
    model_.Observe(dom, cells, writable);
  }
  // An op touched `dom`'s memory in ways the model cannot name: re-read it
  // and forget its dirty list until the next reset.
  void Taint(DomId dom) {
    if (Modelled(dom)) {
      Observe(dom);
      model_.Taint(dom);
    }
  }
  // A toolstack teardown that failed, or ran with faults armed, may leave
  // its xenstore cleanup undone; the dead domain's subtree may linger.
  void ExemptXenstoreIfFaulted(DomId dom, bool toolstack_ok) {
    if (!toolstack_ok || faults_armed_) {
      xs_exempt_.insert(dom);
    }
  }
  // A lazy child that died mid-stream handed `parent` back the writability
  // of the private pages it still deferred, which only the system knows:
  // re-read the parent's ptes (not its cells, which the death must not
  // change), allowing only read-only-to-writable flips.
  void ObserveLazyDeath(DomId parent, DomId child) {
    const Model::DomainModel* p = model_.Find(parent);
    if (p == nullptr) {
      return;
    }
    const std::array<bool, Model::kTrackedPages> before = p->writable;
    Observe(parent, /*ptes_only=*/true);
    for (std::size_t page = 0; page < Model::kTrackedPages; ++page) {
      if (before[page] && !p->writable[page]) {
        Fail("topology", "death of lazy child " + std::to_string(child) +
                             " made parent tracked page " + std::to_string(page) +
                             " read-only");
      }
    }
  }
  // Drops a destroyed domain from the model and every executor list.
  void Forget(DomId dom) {
    const Model::DomainModel* m = model_.Find(dom);
    const DomId lazy_parent = m != nullptr && m->lazy ? m->parent : kDomInvalid;
    model_.Destroy(dom);
    ObserveLazyDeath(lazy_parent, dom);
    live_.erase(std::remove(live_.begin(), live_.end(), dom), live_.end());
    granted_.erase(std::remove(granted_.begin(), granted_.end(), dom), granted_.end());
    dead_.push_back(dom);
  }
  // Stage-2 aborts destroy children behind the op stream's back; fold them
  // into the dead list (and the digest) before the oracle runs.
  void PruneVanished() {
    std::vector<DomId> gone;
    for (DomId dom : live_) {
      if (sys_->hypervisor().FindDomain(dom) == nullptr) {
        gone.push_back(dom);
      }
    }
    for (DomId dom : gone) {
      log_ << " gone=" << dom;
      sched_->Forget(dom);
      Forget(dom);
      unmodelled_ = true;
    }
  }
  // Destroys `dom` through the toolstack, falling back to the raw hypercall
  // for domains the toolstack refuses, and books a modelled domain that is
  // gone. Returns the final status.
  Status DestroyAndBook(DomId dom);
  // Books a reset the system applied to `dom`, restoring `restored` pages.
  void BookReset(DomId dom, std::size_t restored, std::size_t stream_pending);

  void Expect(std::string_view counter, std::uint64_t delta) {
    expected_[std::string(counter)] += delta;
  }
  void ResyncCounters() {
    for (const char* name : kTrackedCounters) {
      expected_[name] = sys_->metrics().CounterValue(name);
    }
  }

  void Settle() {
    sys_->Settle();
    unsettled_ = false;
  }

  // --- Oracle. ---
  void Fail(std::string kind, std::string message) {
    if (result_.ok()) {
      result_.fail_kind = std::move(kind);
      result_.fail_op = cur_op_;
      result_.message = std::move(message);
    }
  }
  // Logs an op outcome and enforces status discipline: hostile arguments
  // must surface typed errors, never kInternal.
  void OpCode(const Status& s) {
    last_code_ = static_cast<int>(s.code());
    log_ << ' ' << last_code_;
    if (s.code() == StatusCode::kInternal) {
      Fail("op-status", "internal error escaped the API: " + s.ToString());
    }
  }
  void RunOracle();
  std::string CheckLiveSet() const;
  std::string CheckTopology() const;
  std::string CheckCells() const;
  std::string CheckXenstore() const;
  std::string CheckCounters();

  void Edge(std::uint32_t value) { result_.edges.push_back(value % 0x10000u); }
  void OpEdges(const Op& op) {
    auto k = static_cast<std::uint32_t>(op.kind);
    auto code = static_cast<std::uint32_t>(last_code_);
    Edge(static_cast<std::uint32_t>(DstHash64("op") * 31 + k * 17 + code));
    Edge((prev_kind_ * 41 + k) * 13 + code);
    std::uint32_t live_bucket = static_cast<std::uint32_t>(std::min<std::size_t>(live_.size(), 7));
    Edge(k * 257 + live_bucket * 29 + (faults_armed_ ? 7919 : 0));
    prev_kind_ = k;
  }

  // --- Op implementations. ---
  void OpLaunch();
  void OpClone(const Op& op, bool lazy);
  void OpLazyTouch(const Op& op);
  // Shared tail of kWrite and kLazyTouch: performs the tracked-cell write,
  // predicting the demand-fault materialisations it must cause.
  void WriteCell(DomId dom, std::uint32_t slot, std::uint8_t value);
  void OpReset(const Op& op);
  void OpDestroy(DomId dom);
  void OpMigrateOut(const Op& op);
  void OpMigrateIn(const Op& op);
  void OpDevio(const Op& op);
  void OpSchedAcquire(const Op& op);
  void OpSchedRelease(const Op& op);
  void OpArm(const Op& op);
  void OpStream(const Op& op);
  void OpGrant(const Op& op);
  void OpEvAlloc(const Op& op);
  void OpXsWrite(const Op& op);
  void OpP9(const Op& op);
  void OpRawAccess(const Op& op, bool write);
  void OpTouch(const Op& op, bool cow);
  void WireScheduler();

  const Tape& tape_;
  const RunOptions& options_;
  RunResult result_;

  std::unique_ptr<NepheleSystem> sys_;
  HostFs fs_;
  std::unique_ptr<P9BackendProcess> p9_;   // after sys_: destroyed first
  std::unique_ptr<CloneScheduler> sched_;  // after sys_: destroyed first
  Model model_;

  std::vector<DomId> live_;     // modelled domains in creation order
  std::vector<DomId> dead_;     // destroyed ids (never reused)
  std::set<DomId> xs_exempt_;   // dead ids whose xenstore dir may linger
  std::vector<DomId> granted_;  // scheduler grants eligible for release
  std::vector<MigrationStream> streams_;
  std::vector<std::pair<DomId, GrantRef>> grants_;   // (granter, ref)
  std::vector<std::pair<DomId, EvtchnPort>> ports_;  // (owner, port)
  std::vector<std::pair<DomId, std::uint32_t>> fids_;
  std::map<std::string, std::uint64_t> expected_;

  bool faults_armed_ = false;
  bool unsettled_ = false;
  bool unmodelled_ = false;  // re-baseline counters at the next oracle run
  std::size_t initial_free_ = 0;
  Gfn heap0_ = 0;
  std::size_t guest_pages_ = 0;
  std::size_t cur_op_ = 0;
  int last_code_ = 0;
  std::uint32_t prev_kind_ = 0;
  std::ostringstream log_;
};

RunResult Executor::Run() {
  SystemConfig config;
  config.hypervisor.pool_frames = tape_.pool_frames;
  // Fixed, tight scheduler knobs so tapes exercise batching, warm-pool reuse
  // and queue-full rejection with few ops. The 1 ms window and 100 ms
  // timeout both drain inside each op's Settle, so every scheduler decision
  // lands within the op that caused it.
  config.sched.batch_window = SimDuration::Millis(1);
  config.sched.max_batch = 4;
  config.sched.warm_pool_capacity = 2;
  config.sched.max_queue_depth = 4;
  config.sched.request_timeout = SimDuration::Millis(100);
  // Manual streaming: the prefetcher never self-schedules, so lazy children
  // stay half-mapped until a `stream` op (or a demand fault) moves them
  // along. max_hot_pages = 0 keeps the tracked heap pages out of the hot set
  // (beyond the one-page hint a lazyclone op carries), so lazytouch reliably
  // finds not-present entries to demand-fault.
  config.lazy_clone.auto_stream = false;
  config.lazy_clone.stream_batch_pages = kStreamBatchPages;
  config.lazy_clone.max_hot_pages = 0;
  sys_ = std::make_unique<NepheleSystem>(config);
  p9_ = std::make_unique<P9BackendProcess>(sys_->loop(), sys_->costs(), fs_, "/srv/dst");
  // Seed host files so hostile 9p opens/reads have something legitimate to
  // hit between the escape attempts.
  (void)fs_.CreateFile("/srv/dst/data");
  (void)fs_.CreateFile("/srv/dst/x");
  sched_ = std::make_unique<CloneScheduler>(*sys_);
  WireScheduler();
  Settle();
  initial_free_ = sys_->hypervisor().FreePoolFrames();

  GuestMemoryLayout layout =
      ComputeGuestLayout(DstGuestConfig(), sys_->hypervisor().config().min_domain_pages);
  heap0_ = static_cast<Gfn>(layout.heap_first_gfn);
  guest_pages_ = layout.total_pages;
  ResyncCounters();

  for (std::size_t i = 0; i < tape_.ops.size(); ++i) {
    const Op& op = tape_.ops[i];
    cur_op_ = i;
    last_code_ = 0;
    log_ << i << ' ' << OpKindName(op.kind);
    ExecuteOp(op);
    PruneVanished();
    log_ << '\n';
    ++result_.ops_executed;
    OpEdges(op);
    if (options_.after_op) {
      options_.after_op(*sys_, op, i);
    }
    RunOracle();
    if (!result_.ok()) {
      result_.digest = log_.str();
      return std::move(result_);
    }
  }

  // Teardown: disarm, quiesce, everything down in reverse creation order;
  // the pool must return to its boot level (absolute frame conservation).
  cur_op_ = tape_.ops.size();
  if (faults_armed_) {
    sys_->fault_injector().DisarmAll();
    faults_armed_ = false;
    unmodelled_ = true;
  }
  Settle();
  PruneVanished();
  std::vector<DomId> doomed(live_.rbegin(), live_.rend());
  for (DomId dom : doomed) {
    log_ << "teardown";
    OpDestroy(dom);
    PruneVanished();
    log_ << '\n';
  }
  RunOracle();
  if (result_.ok() && !live_.empty()) {
    Fail("teardown", "teardown left " + std::to_string(live_.size()) + " domains alive");
  }
  if (result_.ok() && sys_->hypervisor().FreePoolFrames() != initial_free_) {
    Fail("teardown", "pool did not return to boot level: free=" +
                         std::to_string(sys_->hypervisor().FreePoolFrames()) + " vs initial " +
                         std::to_string(initial_free_));
  }

  log_ << "metrics " << DstHash64(sys_->metrics().ExportJson()) << '\n';
  log_ << "trace " << DstHash64(sys_->trace().ExportJson()) << '\n';
  log_ << "simtime " << sys_->Now().ns() << '\n';
  result_.digest = log_.str();
  return std::move(result_);
}

void Executor::ExecuteOp(const Op& op) {
  switch (op.kind) {
    case OpKind::kLaunch:
      OpLaunch();
      break;
    case OpKind::kClone:
      OpClone(op, /*lazy=*/false);
      break;
    case OpKind::kLazyClone:
      OpClone(op, /*lazy=*/true);
      break;
    case OpKind::kWrite:
      WriteCell(ResolveDom(op.a), op.c % Model::kCells, static_cast<std::uint8_t>(op.v));
      break;
    case OpKind::kLazyTouch:
      OpLazyTouch(op);
      break;
    case OpKind::kReset:
      OpReset(op);
      break;
    case OpKind::kDestroy:
      OpDestroy(ResolveDom(op.a));
      break;
    case OpKind::kMigrateOut:
      OpMigrateOut(op);
      break;
    case OpKind::kMigrateIn:
      OpMigrateIn(op);
      break;
    case OpKind::kDevio:
      OpDevio(op);
      break;
    case OpKind::kSchedAcquire:
      OpSchedAcquire(op);
      break;
    case OpKind::kSchedRelease:
      OpSchedRelease(op);
      break;
    case OpKind::kArm:
      OpArm(op);
      break;
    case OpKind::kDisarm:
      // Deliberately no Settle: disarming must not close an open mid-clone
      // window (same for kArm and kAdvance). Injections may have perturbed
      // untracked paths; start a fresh exact-comparison epoch.
      sys_->fault_injector().DisarmAll();
      faults_armed_ = false;
      unmodelled_ = true;
      break;
    case OpKind::kAdvance:
      sys_->loop().AdvanceBy(SimDuration::Nanos(
          static_cast<std::int64_t>(std::min<std::uint64_t>(op.amount, 1'000'000'000ULL))));
      break;
    case OpKind::kSettle:
      Settle();
      break;
    case OpKind::kStream:
      OpStream(op);
      break;
    case OpKind::kGrant:
      OpGrant(op);
      break;
    case OpKind::kMap: {
      auto [granter, ref] = GrantHandle(op.c);
      auto gfn = sys_->hypervisor().MapGrant(ResolveDom(op.a), granter, ref);
      Settle();
      OpCode(gfn.status());
      break;
    }
    case OpKind::kUnmap: {
      auto [granter, ref] = GrantHandle(op.c);
      Status s = sys_->hypervisor().UnmapGrant(ResolveDom(op.a), granter, ref);
      Settle();
      OpCode(s);
      break;
    }
    case OpKind::kEndGrant: {
      auto [granter, ref] = GrantHandle(op.c);
      if (op.a % 2 == 1) {
        granter = ResolveDom(op.a / 2);  // a stranger tries to revoke
      }
      Status s = sys_->hypervisor().EndGrantAccess(granter, ref);
      Settle();
      OpCode(s);
      break;
    }
    case OpKind::kEvAlloc:
      OpEvAlloc(op);
      break;
    case OpKind::kEvBind: {
      auto [remote_dom, remote_port] = PortHandle(op.c);
      const DomId binder = ResolveDom(op.a);
      auto port = sys_->hypervisor().EvtchnBindInterdomain(binder, remote_dom, remote_port);
      Settle();
      OpCode(port.status());
      if (port.ok()) {
        ports_.emplace_back(binder, *port);
        log_ << " port=" << *port;
      }
      break;
    }
    case OpKind::kEvSend:
    case OpKind::kEvClose: {
      auto [owner, port] = PortHandle(op.c);
      const DomId actor = op.a % 2 == 0 ? owner : ResolveDom(op.a / 2);
      Status s = op.kind == OpKind::kEvSend ? sys_->hypervisor().EvtchnSend(actor, port)
                                            : sys_->hypervisor().EvtchnClose(actor, port);
      Settle();
      OpCode(s);
      break;
    }
    case OpKind::kXsWrite:
      OpXsWrite(op);
      break;
    case OpKind::kP9:
      OpP9(op);
      break;
    case OpKind::kRawWrite:
      OpRawAccess(op, /*write=*/true);
      break;
    case OpKind::kRead:
      OpRawAccess(op, /*write=*/false);
      break;
    case OpKind::kTouch:
      OpTouch(op, /*cow=*/false);
      break;
    case OpKind::kCow:
      OpTouch(op, /*cow=*/true);
      break;
  }
}

void Executor::OpLaunch() {
  auto dom = sys_->toolstack().CreateDomain(DstGuestConfig());
  Settle();
  OpCode(dom.status());
  if (dom.ok()) {
    log_ << " dom=" << *dom;
    live_.push_back(*dom);
    model_.Launch(*dom);
    Expect("toolstack/domains_booted", 1);
    Expect("hypervisor/domains/created", 1);
  } else {
    // A failed build unwinds itself through the toolstack's Dom0 teardown
    // and a domain destroy: create/destroy churn the counter model does not
    // predict.
    unmodelled_ = true;
  }
}

void Executor::OpClone(const Op& op, bool lazy) {
  const DomId parent = ResolveDom(op.a);
  DomId caller = parent;  // b%4 == 0: the parent clones itself, the paper's model
  switch (op.b % 4) {
    case 1:
      caller = kDom0;
      break;
    case 2:
      caller = ResolveDom(op.b / 4);  // an unrelated domain tries
      break;
    case 3:
      caller = kDomInvalid;
      break;
    default:
      break;
  }
  const unsigned n = op.n == 0 ? 1 : 1 + (op.n - 1) % 8;
  const bool well_formed = Modelled(parent) && (caller == parent || caller == kDom0) &&
                           (op.flags & 1) == 0 && !unsettled_;
  const bool would_validate =
      well_formed && model_.CloneWouldValidate(parent, DstGuestConfig().max_clones, n);
  const std::uint64_t rolled_back_before = sys_->metrics().CounterValue("clone/rolled_back");
  // A still-streaming parent finishes its own stream before it clones.
  const std::size_t parent_pending = sys_->clone_engine().PendingStreamPages(parent);

  CloneRequest req(caller, parent,
                   (op.flags & 1) != 0 ? static_cast<Mfn>(0xDEADBEEF) : StartInfoMfn(parent), n,
                   lazy);
  if (lazy) {
    // The hint makes one tracked page hot, so every lazy clone exercises
    // both sides of the hot/deferred split on oracle-visible pages.
    req.hot_pages.push_back(heap0_ + static_cast<Gfn>(op.c % Model::kTrackedPages));
  }
  auto children = sys_->clone_engine().Clone(req);
  if ((op.flags & 2) != 0) {
    // Leave stage 2 pending: the clone-during-clone window. Later ops decide
    // which children complete, so the counters re-baseline.
    unsettled_ = true;
    unmodelled_ = true;
  } else {
    Settle();
  }
  OpCode(children.status());
  log_ << " parent=" << parent << " n=" << n;

  if (!children.ok()) {
    if (would_validate && !faults_armed_ &&
        sys_->metrics().CounterValue("clone/rolled_back") != rolled_back_before + 1) {
      // The model admitted the batch, so the failure happened mid-plan
      // (resource exhaustion) and must have been rolled back exactly once.
      Fail("counters", "failed clone did not roll back exactly once: " +
                           children.status().ToString());
    }
    unmodelled_ = true;  // rollback churns created/destroyed counters
    return;
  }
  if (!Modelled(parent)) {
    Fail("live-set", "clone of unmodelled domain " + std::to_string(parent) + " succeeded");
    return;
  }
  Expect("clone/streamed_pages", parent_pending);
  if (lazy) {
    Expect("clone/lazy/clones", n);
  }
  model_.CloneBatchPlanned(parent, n);
  unsigned aborted = 0;
  for (DomId child : *children) {
    if (sys_->hypervisor().FindDomain(child) != nullptr) {
      live_.push_back(child);
      model_.CloneChild(parent, child, lazy);
      log_ << " c" << child;
    } else {
      // Second stage failed; the abort path already destroyed the child.
      ++aborted;
      dead_.push_back(child);
      log_ << " a" << child;
      if (lazy) {
        ObserveLazyDeath(parent, child);
      }
    }
  }
  Expect("clone/batches_total", 1);
  Expect("clone/clones_total", n);
  Expect("hypervisor/domains/created", n);
  Expect("xencloned/clones_completed", n - aborted);
  Expect("xencloned/clones_aborted", aborted);
  // Every stage-2 abort retires its pending slot through CloneAborted,
  // which counts as a rollback and destroys the child.
  Expect("clone/rolled_back", aborted);
  Expect("hypervisor/domains/destroyed", aborted);
}

void Executor::OpLazyTouch(const Op& op) {
  const DomId dom = ResolveDom(op.a);
  // Aim at a tracked page the domain still defers, scanning from page c so
  // different operands hit different pages; when the domain defers nothing
  // this degrades to an ordinary tracked-cell write.
  std::uint32_t page = op.c % Model::kTrackedPages;
  if (const Domain* d = sys_->hypervisor().FindDomain(dom); d != nullptr) {
    for (std::uint32_t probe = 0; probe < Model::kTrackedPages; ++probe) {
      const std::uint32_t candidate = (page + probe) % Model::kTrackedPages;
      if (heap0_ + candidate < d->p2m.size() && d->p2m[heap0_ + candidate].mfn == kInvalidMfn) {
        page = candidate;
        break;
      }
    }
  }
  WriteCell(dom, page * static_cast<std::uint32_t>(Model::kSlotsPerPage),
            static_cast<std::uint8_t>(op.v));
}

void Executor::WriteCell(DomId dom, std::uint32_t slot, std::uint8_t value) {
  const std::size_t demand = PredictDemandFaults(dom, CellGfn(slot));
  Status status =
      sys_->hypervisor().WriteGuestPage(dom, CellGfn(slot), Model::SlotOffset(slot), &value, 1);
  Settle();
  OpCode(status);
  log_ << " dom=" << dom << " slot=" << slot;
  if (!Modelled(dom)) {
    unmodelled_ = true;
  } else if (status.ok()) {
    model_.Write(dom, slot, value);
    Expect("clone/lazy/demand_faults", demand);
  } else {
    if (!faults_armed_ && status.code() != StatusCode::kResourceExhausted) {
      Fail("op-status", "guest write failed without faults armed: " + status.ToString());
    }
    // A failed write can still have materialised some pushes before the
    // injected error hit; re-baseline instead of predicting the partial.
    unmodelled_ = true;
  }
}

void Executor::BookReset(DomId dom, std::size_t restored, std::size_t stream_pending) {
  Expect("clone/streamed_pages", stream_pending);
  log_ << " restored=" << restored;
  const DomId parent = model_.Find(dom)->parent;
  const std::optional<std::size_t> predicted = model_.Reset(dom);
  if (!predicted) {
    // Tainted: the restored pages (and the parent ptes they re-share) are
    // whatever the system says.
    Observe(dom);
    Observe(parent);
    unmodelled_ = true;
    return;
  }
  if (restored != *predicted) {
    Fail("cells", "clone_reset restored " + std::to_string(restored) +
                      " pages, model predicts " + std::to_string(*predicted));
  }
  Expect("clone/reset/count", 1);
  Expect("clone/reset/pages_restored", *predicted);
}

void Executor::OpReset(const Op& op) {
  const DomId target = ResolveDom(op.a);
  DomId caller = kDom0;
  if (op.b % 3 == 1) {
    caller = target;  // self-reset, allowed
  } else if (op.b % 3 == 2) {
    caller = ResolveDom(op.b / 4);  // a stranger tries
  }
  const bool can_reset = (caller == kDom0 || caller == target) && model_.CanReset(target);
  // Reset finishes the target's own stream and the streams of its streaming
  // children (their deferred pages reference frames the reset re-shares).
  const std::size_t stream_pending =
      sys_->clone_engine().PendingStreamPages(target) + PendingChildStreamPages(target);
  auto restored = sys_->clone_engine().CloneReset(caller, target);
  Settle();
  OpCode(restored.status());
  log_ << " dom=" << target;
  if (restored.ok()) {
    if (!can_reset) {
      Fail("op-status", "clone_reset succeeded for a target/caller the model refuses");
      return;
    }
    BookReset(target, *restored, stream_pending);
    return;
  }
  if (can_reset && !faults_armed_) {
    Fail("op-status", "clone_reset failed for a resettable clone: " + restored.status().ToString());
  }
  if (faults_armed_ && Modelled(target)) {
    // A mid-loop failure legitimately leaves a restored prefix (documented
    // resume semantics); the model cannot know which pages, so read back.
    Taint(target);
    Observe(model_.Find(target)->parent);
  }
  unmodelled_ = true;
}

Status Executor::DestroyAndBook(DomId dom) {
  const bool modelled = Modelled(dom);
  // Destroying the parent of streaming children force-finishes their
  // streams (the frames they defer are about to be released); destroying a
  // streaming child just abandons its own stream.
  const std::size_t stream_pending = PendingChildStreamPages(dom);
  Status status = sys_->toolstack().DestroyDomain(dom);
  const bool toolstack_ok = status.ok();
  if (sys_->hypervisor().FindDomain(dom) != nullptr) {
    status = sys_->hypervisor().DestroyDomain(dom);
  }
  if (!modelled) {
    return status;
  }
  if (sys_->hypervisor().FindDomain(dom) == nullptr) {
    if (!toolstack_ok) {
      // The raw-hypercall fallback skips the toolstack's bookkeeping.
      unmodelled_ = true;
    }
    ExemptXenstoreIfFaulted(dom, toolstack_ok);
    Forget(dom);
    Expect("toolstack/domains_destroyed", 1);
    Expect("hypervisor/domains/destroyed", 1);
    Expect("clone/streamed_pages", stream_pending);
  } else if (!faults_armed_) {
    Fail("op-status", "destroy left the domain alive: " + status.ToString());
  } else {
    unmodelled_ = true;
  }
  return status;
}

void Executor::OpDestroy(DomId dom) {
  Status status = DestroyAndBook(dom);
  if (sys_->hypervisor().FindDomain(dom) == nullptr) {
    sched_->Forget(dom);  // the scheduler must not serve a destroyed child warm
  }
  Settle();
  OpCode(status);
  log_ << " dom=" << dom;
}

void Executor::OpMigrateOut(const Op& op) {
  const DomId dom = ResolveDom(op.a);
  const bool can_migrate = model_.CanMigrateOut(dom);
  auto stream = sys_->toolstack().MigrateOut(dom);
  Settle();
  OpCode(stream.status());
  log_ << " dom=" << dom;
  if (stream.ok()) {
    if (!can_migrate) {
      Fail("op-status", "migrate-out accepted a domain with family relations");
      return;
    }
    ExemptXenstoreIfFaulted(dom, /*toolstack_ok=*/true);
    streams_.push_back(std::move(*stream));
    model_.MigrateOut(dom);
    live_.erase(std::remove(live_.begin(), live_.end(), dom), live_.end());
    dead_.push_back(dom);
    Expect("toolstack/domains_destroyed", 1);
    Expect("hypervisor/domains/destroyed", 1);
  } else if (can_migrate && !faults_armed_) {
    Fail("op-status", "migrate-out failed for an unrelated domain: " + stream.status().ToString());
  }
}

void Executor::OpMigrateIn(const Op& op) {
  if (streams_.empty()) {
    log_ << " skip";
    return;
  }
  const std::size_t slot = op.c % streams_.size();
  auto dom = sys_->toolstack().MigrateIn(streams_[slot]);
  Settle();
  OpCode(dom.status());
  if (dom.ok()) {
    log_ << " dom=" << *dom;
    live_.push_back(*dom);
    model_.MigrateIn(slot, *dom);
    // Only image-based RestoreDomain counts as "restored"; stream
    // immigration books a plain hypervisor create.
    Expect("hypervisor/domains/created", 1);
  } else {
    unmodelled_ = true;  // failed immigration unwinds with unmodelled churn
  }
}

void Executor::OpDevio(const Op& op) {
  const DomId dom = ResolveDom(op.a);
  const std::uint32_t key = op.c % 8;
  std::string value = EncodeDevioValue(op.v);
  const std::string path =
      XsDomainPath(dom) + "/data/dst/" + std::string(1, static_cast<char>('a' + key));
  Status status = sys_->xenstore().Write(path, value);
  Settle();
  OpCode(status);
  log_ << " dom=" << dom << " key=" << key;
  if (!Modelled(dom)) {
    if (status.ok()) {
      xs_exempt_.insert(dom);  // Dom0 may write anywhere, dead domains included
    }
  } else if (status.ok()) {
    model_.DeviceIo(dom, key, std::move(value));
  } else if (!faults_armed_) {
    Fail("op-status", "xenstore data write failed without faults armed: " + status.ToString());
  }
}

void Executor::WireScheduler() {
  // Scheduled batches run through the ordinary engine path; the wrapper adds
  // the model/counter bookkeeping OpClone does for a direct batch and logs
  // the dispatch so batching decisions are part of the digest.
  sched_->SetCloneExecutor([this](const CloneRequest& req) {
    const std::size_t parent_pending = sys_->clone_engine().PendingStreamPages(req.parent);
    auto children = sys_->clone_engine().Clone(req);
    log_ << " B" << req.parent << "x" << req.num_children << "t" << sys_->Now().ns() << "s"
         << static_cast<int>(children.status().code());
    if (children.ok() && Modelled(req.parent)) {
      model_.CloneBatchPlanned(req.parent, req.num_children);
      Expect("clone/streamed_pages", parent_pending);
      Expect("clone/batches_total", 1);
      Expect("clone/clones_total", req.num_children);
      Expect("hypervisor/domains/created", req.num_children);
      Expect("xencloned/clones_completed", req.num_children);
    } else {
      // Mid-build failures roll back with churn the counter model does not
      // predict (same as a failed direct batch).
      unmodelled_ = true;
    }
    return children;
  });
  // Evictions and fallback destroys tear the child down behind the op
  // stream's back; mirror them into the model and the live/dead lists.
  sched_->SetEvictFn([this](DomId dom) {
    (void)DestroyAndBook(dom);
    log_ << " E" << dom;
  });
}

void Executor::OpSchedAcquire(const Op& op) {
  const DomId parent = ResolveDom(op.a);
  // Deliberately allowed past max_queue_depth (4) so tapes can force a
  // deterministic wholesale queue-full rejection.
  const unsigned n = op.n == 0 ? 1 : 1 + (op.n - 1) % 6;
  CloneRequest req(kDom0, parent, StartInfoMfn(parent), n);

  auto outcomes = std::make_shared<std::vector<Result<DomId>>>();
  Status status = sched_->Acquire(
      req, [outcomes](Result<DomId> r) { outcomes->push_back(std::move(r)); });
  // The 1 ms window, the batch itself and the 100 ms ticket timeouts all
  // drain here, so every grant outcome is in `outcomes` after Settle.
  Settle();
  OpCode(status);
  log_ << " parent=" << parent << " n=" << n;

  if (!status.ok()) {
    if (Modelled(parent) && !faults_armed_) {
      if (n <= sched_->config().max_queue_depth) {
        Fail("op-status",
             "sched acquire rejected a request the empty queue could take: " + status.ToString());
      } else if (status.code() != StatusCode::kResourceExhausted) {
        Fail("op-status", "queue-full rejection carries the wrong code: " + status.ToString());
      }
    }
    return;
  }

  for (Result<DomId>& r : *outcomes) {
    if (!r.ok()) {
      log_ << " e" << static_cast<int>(r.status().code());
      continue;
    }
    DomId child = *r;
    if (std::find(live_.begin(), live_.end(), child) != live_.end()) {
      // Warm grant: the child never left the live set; its parked state was
      // already reset at release time.
      log_ << " w" << child;
    } else {
      const Domain* d = sys_->hypervisor().FindDomain(child);
      if (d == nullptr || !Modelled(d->parent)) {
        Fail("live-set", "scheduler granted dead or unmodelled domain " + std::to_string(child));
        return;
      }
      live_.push_back(child);
      model_.CloneChild(d->parent, child, sched_->config().lazy_dispatch);
      log_ << " c" << child;
    }
    granted_.push_back(child);
  }
}

void Executor::OpSchedRelease(const Op& op) {
  if (granted_.empty()) {
    log_ << " skip";
    return;
  }
  const DomId child = granted_[op.c % granted_.size()];
  const bool can_reset = model_.CanReset(child);
  // Release finishes the child's own stream before parking; the reset inside
  // it also finishes any streams of the child's own lazy children.
  const std::size_t stream_pending =
      sys_->clone_engine().PendingStreamPages(child) + PendingChildStreamPages(child);
  auto outcome = sched_->Release(child);
  Settle();
  OpCode(outcome.status());
  log_ << " dom=" << child;
  if (!outcome.ok()) {
    // Legitimate refusals exist without faults: a child orphaned by its
    // parent's destruction is no longer a clone. Only a child the model says
    // is resettable must be accepted.
    if (can_reset && !faults_armed_) {
      Fail("op-status",
           "sched release failed for a resettable clone: " + outcome.status().ToString());
    }
    return;
  }
  if (outcome->reset_applied && !Modelled(child)) {
    unmodelled_ = true;  // evicted before Release returned: nothing left to check
  } else if (outcome->reset_applied && !can_reset) {
    Fail("op-status", "sched release reset a domain the model says has no live parent");
  } else if (outcome->reset_applied) {
    BookReset(child, outcome->pages_restored, stream_pending);
    log_ << (outcome->parked ? " parked" : " evicted");
  } else if (can_reset && !faults_armed_) {
    Fail("op-status", "sched release fell back to destroy for a resettable clone");
  }
  if (outcome->parked) {
    // Parked children leave the grant list; they come back via a warm hit.
    granted_.erase(std::remove(granted_.begin(), granted_.end(), child), granted_.end());
  }
  // Non-parked outcomes were destroyed through the evict hook, which already
  // scrubbed every list.
}

void Executor::OpArm(const Op& op) {
  Status s = sys_->fault_injector().Arm(op.point, op.spec);
  OpCode(s);
  log_ << ' ' << op.point;
  if (s.ok()) {
    faults_armed_ = true;
  }
}

void Executor::OpStream(const Op& op) {
  CloneEngine& engine = sys_->clone_engine();
  if ((op.flags & 1) != 0) {
    const DomId dom = ResolveDom(op.a);
    const std::size_t before = engine.PendingStreamPages(dom);
    Status s = engine.FinishStreaming(dom);
    Settle();
    OpCode(s);
    Expect("clone/streamed_pages", before - engine.PendingStreamPages(dom));
    log_ << " finish dom=" << dom;
  } else {
    const std::size_t pages = engine.StreamPump(1 + op.n % 4);
    Settle();
    Expect("clone/streamed_pages", pages);
    log_ << ' ' << last_code_ << " pages=" << pages;
  }
}

void Executor::OpGrant(const Op& op) {
  const DomId granter = ResolveDom(op.a);
  DomId grantee = kDomInvalid;
  switch (op.b % 5) {
    case 0:
      grantee = ResolveDom(op.b / 8);
      break;
    case 1:
      grantee = granter;  // self-grant
      break;
    case 2:
      grantee = kDomChild;  // the Nephele wildcard
      break;
    case 3:
      grantee = kDom0;
      break;
    default:
      break;  // kDomInvalid
  }
  auto ref = sys_->hypervisor().GrantAccess(granter, grantee, GfnMenu(op.c), (op.flags & 1) != 0);
  Settle();
  OpCode(ref.status());
  // Granting a deferred page demand-faults it in.
  unmodelled_ = true;
  if (ref.ok()) {
    grants_.emplace_back(granter, *ref);
    log_ << " ref=" << *ref;
  }
}

void Executor::OpEvAlloc(const Op& op) {
  const DomId owner = ResolveDom(op.a);
  DomId remote = kDomInvalid;
  switch (op.b % 4) {
    case 0:
      remote = ResolveDom(op.b / 8);
      break;
    case 1:
      remote = kDomChild;  // IDC
      break;
    case 2:
      remote = kDom0;
      break;
    default:
      remote = dead_.empty() ? static_cast<DomId>(4242) : dead_[(op.b / 8) % dead_.size()];
      break;
  }
  auto port = sys_->hypervisor().EvtchnAllocUnbound(owner, remote);
  Settle();
  OpCode(port.status());
  if (port.ok()) {
    ports_.emplace_back(owner, *port);
    log_ << " port=" << *port;
  }
}

void Executor::OpXsWrite(const Op& op) {
  const DomId dom = ResolveDom(op.a);
  std::string path;
  switch (op.b % 6) {
    case 0:
      path = XsDomainPath(dom) + "/data/hv/" +
             std::string(1, static_cast<char>('a' + (op.b / 8) % 4));
      break;
    case 1:
      path = XsDomainPath(dom) + "/data/" + std::string(300, 'k');  // oversized component
      break;
    case 2:
      path = XsDomainPath(dom) + "/data/../../0/data/escape";  // subtree escape
      break;
    case 3:
      path = XsDomainPath(dom) + "/data";
      for (int i = 0; i < 600; ++i) {
        path += "/d";  // 1200+ bytes: over the path cap
      }
      break;
    case 4:
      path = XsDomainPath(dom) + "/data/./x";  // dot component
      break;
    default:
      path = "/tool/dst";  // outside any domain subtree
      break;
  }
  std::string value;
  switch (op.c % 3) {
    case 0:
      value = "v" + std::to_string(op.c);
      break;
    case 1:
      value = std::string(5000, 'x');  // over the value cap
      break;
    default:
      break;  // empty
  }
  Status s = sys_->xenstore().Write(path, value);
  Settle();
  OpCode(s);
  if (s.ok()) {
    xs_exempt_.insert(dom);  // Dom0 may write anywhere, dead domains included
  }
}

void Executor::OpP9(const Op& op) {
  const DomId dom = ResolveDom(op.a);
  switch (op.b % 7) {
    case 0: {
      auto fid = p9_->Attach(dom);
      Settle();
      OpCode(fid.status());
      if (fid.ok()) {
        fids_.emplace_back(dom, *fid);
      }
      break;
    }
    case 1: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      static constexpr const char* kPaths[] = {"..", "a/../../b", ".", "data", "x"};
      auto walked = p9_->Walk(fdom, fid, kPaths[op.c % 5]);
      Settle();
      OpCode(walked.status());
      if (walked.ok()) {
        fids_.emplace_back(fdom, *walked);
      }
      break;
    }
    case 2: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      Status s = p9_->Open(fdom, fid, (op.c / 8) % 2 != 0);
      Settle();
      OpCode(s);
      break;
    }
    case 3: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      static const std::string kNames[] = {"f", "..", "a/b", ".", std::string(64, 'n')};
      auto created = p9_->Create(fdom, fid, kNames[op.c % 5]);
      Settle();
      OpCode(created.status());
      if (created.ok()) {
        fids_.emplace_back(fdom, *created);
      }
      break;
    }
    case 4: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      Status s = p9_->Clunk(fdom, fid);  // handles stay: stale-fid bait
      Settle();
      OpCode(s);
      break;
    }
    case 5: {
      auto [fdom, fid] = FidHandle(op.c, dom);
      auto data = p9_->Read(fdom, fid, OffMenu(op.n), 4096);
      Settle();
      OpCode(data.status());
      break;
    }
    default: {
      Status s = p9_->QmpCloneFids(dom, ResolveDom(op.b / 8));
      Settle();
      OpCode(s);
      break;
    }
  }
}

void Executor::OpRawAccess(const Op& op, bool write) {
  const DomId dom = ResolveDom(op.a);
  const Gfn gfn = GfnMenu(op.c);
  const std::size_t off = OffMenu(op.n);
  const std::size_t len = LenMenu(op.v);
  // Oversized lengths get a 1-byte buffer on purpose: the API must reject
  // them before touching memory, and a regression dies under ASan.
  std::vector<std::uint8_t> buf(len <= kPageSize ? std::max<std::size_t>(len, 1) : 1,
                                static_cast<std::uint8_t>(op.v));
  Status s = write ? sys_->hypervisor().WriteGuestPage(dom, gfn, off, buf.data(), len)
                   : sys_->hypervisor().ReadGuestPage(dom, gfn, off, buf.data(), len);
  Settle();
  OpCode(s);
  if (write && s.code() != StatusCode::kOutOfRange) {
    // The page COW-resolves onto the dirty list (and may push to streaming
    // children) — effects outside the tracked cells.
    Taint(dom);
    unmodelled_ = true;
  }
}

void Executor::OpTouch(const Op& op, bool cow) {
  const DomId dom = ResolveDom(op.a);
  const Gfn gfn = GfnMenu(op.c);
  const std::size_t count = CountMenu(op.n);
  Status s = cow ? sys_->clone_engine().CloneCow(kDom0, dom, gfn, count)
                 : sys_->hypervisor().TouchGuestPages(dom, gfn, count);
  Settle();
  OpCode(s);
  log_ << " dom=" << dom;
  if (s.code() != StatusCode::kOutOfRange) {
    // Anything past the range check may have resolved a prefix of pages,
    // tracked or not, before succeeding or failing.
    Taint(dom);
    unmodelled_ = true;
  }
}

void Executor::RunOracle() {
  if (!result_.ok() || unsettled_) {
    // Mid-clone windows are not quiesced; invariants are only guaranteed
    // at settled points and will be checked at the next one.
    return;
  }
  auto holds = [this](const char* kind, std::string message) {
    if (!message.empty()) {
      Fail(kind, std::move(message));
    }
    return result_.ok();
  };
  if (!holds("live-set", CheckLiveSet()) || !holds("topology", CheckTopology()) ||
      !holds("cells", CheckCells()) || !holds("xenstore", CheckXenstore())) {
    return;
  }
  for (const InvariantLayer& layer : kHypervisorInvariantLayers) {
    if (!holds(layer.name, layer.check(sys_->hypervisor()))) {
      return;
    }
  }
  holds("counters", CheckCounters());
}

std::string Executor::CheckLiveSet() const {
  std::size_t guests = 0;
  for (DomId id : sys_->hypervisor().DomainIds()) {
    if (id == kDom0) {
      continue;
    }
    ++guests;
    if (!Modelled(id)) {
      return "domain " + std::to_string(id) + " alive in the hypervisor but not in the model";
    }
  }
  if (guests != model_.domains().size()) {
    return "hypervisor has " + std::to_string(guests) + " guests, model has " +
           std::to_string(model_.domains().size());
  }
  // A dead domain leaves no toolstack or console record behind.
  for (DomId id : dead_) {
    if (sys_->toolstack().FindConfig(id) != nullptr) {
      return "destroyed dom " + std::to_string(id) + " still has a toolstack record";
    }
    if (sys_->devices().console().HasConsole(id)) {
      return "destroyed dom " + std::to_string(id) + " still has a console";
    }
  }
  return "";
}

std::string Executor::CheckTopology() const {
  for (const auto& [id, m] : model_.domains()) {
    const Domain* d = sys_->hypervisor().FindDomain(id);
    if (d == nullptr) {
      return "model domain " + std::to_string(id) + " missing from hypervisor";
    }
    if (d->parent != m.parent) {
      return "dom " + std::to_string(id) + " parent=" + std::to_string(d->parent) +
             ", model says " + std::to_string(m.parent);
    }
    if (d->track_dirty != m.is_clone) {
      return "dom " + std::to_string(id) + " track_dirty mismatch";
    }
    if (d->clones_created != m.clones_created) {
      return "dom " + std::to_string(id) + " clones_created=" +
             std::to_string(d->clones_created) + ", model says " +
             std::to_string(m.clones_created);
    }
    if (d->IsPaused() || d->blocked_in_clone) {
      return "dom " + std::to_string(id) + " still paused/blocked after settle";
    }
    if (d->tot_pages() != guest_pages_) {
      return "dom " + std::to_string(id) + " has " + std::to_string(d->tot_pages()) +
             " pages, expected " + std::to_string(guest_pages_);
    }
    for (std::size_t page = 0; page < Model::kTrackedPages; ++page) {
      const P2mEntry& entry = d->p2m[heap0_ + page];
      if (entry.writable != m.writable[page]) {
        return "dom " + std::to_string(id) + " tracked page " + std::to_string(page) +
               " writable=" + (entry.writable ? "1" : "0") + ", model says " +
               (m.writable[page] ? "1" : "0");
      }
    }
  }
  return "";
}

std::string Executor::CheckCells() const {
  for (const auto& [id, m] : model_.domains()) {
    for (std::uint32_t slot = 0; slot < Model::kCells; ++slot) {
      std::uint8_t got = 0;
      Status status =
          sys_->hypervisor().ReadGuestPage(id, CellGfn(slot), Model::SlotOffset(slot), &got, 1);
      if (!status.ok()) {
        return "cell read failed for dom " + std::to_string(id) + ": " + status.ToString();
      }
      if (got != m.cells[slot]) {
        return "COW isolation violated: dom " + std::to_string(id) + " slot " +
               std::to_string(slot) + " reads " + std::to_string(got) + ", model says " +
               std::to_string(m.cells[slot]);
      }
    }
  }
  return "";
}

std::string Executor::CheckXenstore() const {
  const XenstoreDaemon& xs = sys_->xenstore();
  for (const auto& [id, m] : model_.domains()) {
    if (!xs.Exists(XsDomainPath(id))) {
      return "live dom " + std::to_string(id) + " has no xenstore subtree";
    }
    for (const auto& [key, value] : m.xs_data) {
      const std::string path =
          XsDomainPath(id) + "/data/dst/" + std::string(1, static_cast<char>('a' + key));
      const std::string* got = xs.PeekValue(path);
      if (got == nullptr) {
        return "xenstore mirror missing " + path;
      }
      if (*got != value) {
        return "xenstore mirror diverged at " + path + ": '" + *got + "' vs model '" + value +
               "'";
      }
    }
  }
  for (DomId id : dead_) {
    if (!xs_exempt_.contains(id) && xs.Exists(XsDomainPath(id))) {
      return "destroyed dom " + std::to_string(id) + " still has a xenstore subtree";
    }
  }
  return "";
}

std::string Executor::CheckCounters() {
  if (faults_armed_ || unmodelled_) {
    // Probability faults can fire inside any op while armed, and unmodelled
    // ops have unpredicted side effects; comparisons resume from a fresh
    // baseline.
    ResyncCounters();
    unmodelled_ = false;
    return "";
  }
  for (const auto& [name, want] : expected_) {
    const std::uint64_t got = sys_->metrics().CounterValue(name);
    if (got != want) {
      return "counter " + name + " = " + std::to_string(got) + ", model expects " +
             std::to_string(want);
    }
  }
  return "";
}

}  // namespace

DomainConfig DstGuestConfig() {
  DomainConfig cfg;
  cfg.name = "dst";
  cfg.memory_mb = 4;
  cfg.max_clones = 512;
  cfg.with_vif = true;
  return cfg;
}

RunResult RunTape(const Tape& tape, const RunOptions& options) {
  Executor executor(tape, options);
  return executor.Run();
}

}  // namespace nephele
