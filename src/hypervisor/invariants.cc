#include "src/hypervisor/invariants.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>

namespace nephele {

namespace {

std::string DomStr(DomId dom) { return std::to_string(dom); }

}  // namespace

std::string CheckFrameInvariants(const Hypervisor& hv) {
  const FrameTable& ft = hv.frames();
  if (ft.free_frames() + ft.allocated_frames() != ft.total_frames()) {
    return "frame conservation violated: free " + std::to_string(ft.free_frames()) +
           " + allocated " + std::to_string(ft.allocated_frames()) + " != total " +
           std::to_string(ft.total_frames());
  }
  std::unordered_map<Mfn, std::uint64_t> refs;
  refs.reserve(ft.allocated_frames());
  for (DomId id : hv.DomainIds()) {
    const Domain* d = hv.FindDomain(id);
    for (const P2mEntry& e : d->p2m) {
      if (e.mfn != kInvalidMfn) {
        ++refs[e.mfn];
      }
    }
    for (Mfn m : d->page_table_frames) {
      ++refs[m];
    }
    for (Mfn m : d->p2m_frames) {
      ++refs[m];
    }
  }
  if (ft.allocated_frames() != refs.size()) {
    return "frame leak: " + std::to_string(ft.allocated_frames()) + " allocated, " +
           std::to_string(refs.size()) + " mapped";
  }
  for (const auto& [mfn, count] : refs) {
    const FrameInfo& fi = ft.info(mfn);
    if (!fi.allocated) {
      return "freed frame still mapped: mfn " + std::to_string(mfn);
    }
    if (fi.shared) {
      if (fi.refcount != count) {
        return "refcount mismatch on shared mfn " + std::to_string(mfn) + ": table says " +
               std::to_string(fi.refcount) + ", mapped " + std::to_string(count) + " times";
      }
    } else if (count != 1) {
      return "unshared mfn " + std::to_string(mfn) + " mapped " + std::to_string(count) +
             " times";
    }
  }
  return "";
}

std::string CheckP2mInvariants(const Hypervisor& hv) {
  const FrameTable& ft = hv.frames();
  for (DomId id : hv.DomainIds()) {
    const Domain* d = hv.FindDomain(id);
    // Partially-mapped (lazy-clone) accounting: every not-present entry must
    // be covered by the domain's deferred ledger, must be read-only, and must
    // have a live parent still holding the page it defers to — otherwise the
    // child's snapshot source is gone and the hole is a plain leak.
    std::size_t not_present = 0;
    for (std::size_t gfn = 0; gfn < d->p2m.size(); ++gfn) {
      const P2mEntry& e = d->p2m[gfn];
      if (e.mfn == kInvalidMfn) {
        ++not_present;
        if (e.writable) {
          return "dom " + DomStr(id) + " gfn " + std::to_string(gfn) +
                 " not-present but writable";
        }
        if (d->lazy_deferred_pages == 0) {
          return "dom " + DomStr(id) + " gfn " + std::to_string(gfn) +
                 " not-present outside an active lazy stream (ledger is 0)";
        }
        const Domain* p = hv.FindDomain(d->parent);
        if (p == nullptr) {
          return "dom " + DomStr(id) + " gfn " + std::to_string(gfn) +
                 " deferred with no live parent to stream from";
        }
        if (gfn >= p->p2m.size() || p->p2m[gfn].mfn == kInvalidMfn) {
          return "dom " + DomStr(id) + " gfn " + std::to_string(gfn) +
                 " deferred but parent dom " + DomStr(d->parent) +
                 " holds no frame there";
        }
        continue;
      }
      if (e.mfn >= ft.total_frames()) {
        return "dom " + DomStr(id) + " gfn " + std::to_string(gfn) + " maps mfn " +
               std::to_string(e.mfn) + " outside the pool";
      }
      const FrameInfo& fi = ft.info(e.mfn);
      if (!fi.allocated) {
        return "dom " + DomStr(id) + " gfn " + std::to_string(gfn) + " maps freed mfn " +
               std::to_string(e.mfn);
      }
      if (fi.shared) {
        if (fi.owner != kDomCow) {
          return "shared mfn " + std::to_string(e.mfn) + " owned by " + DomStr(fi.owner) +
                 ", expected dom_cow";
        }
        // A writable pte over a COW-shared frame would let one sharer mutate
        // every sharer's memory; only IDC regions are shared-and-writable by
        // design.
        if (e.writable && e.role != PageRole::kIdcShared) {
          return "dom " + DomStr(id) + " gfn " + std::to_string(gfn) +
                 " writable over shared mfn " + std::to_string(e.mfn) +
                 " with non-IDC role";
        }
      } else if (fi.owner != id) {
        return "dom " + DomStr(id) + " gfn " + std::to_string(gfn) + " maps private mfn " +
               std::to_string(e.mfn) + " owned by " + DomStr(fi.owner);
      }
    }
    if (not_present != d->lazy_deferred_pages) {
      return "dom " + DomStr(id) + " deferred ledger mismatch: " +
             std::to_string(not_present) + " not-present entries, ledger says " +
             std::to_string(d->lazy_deferred_pages);
    }
    const struct {
      const char* name;
      Gfn gfn;
    } specials[] = {{"start_info", d->start_info_gfn},
                    {"console_ring", d->console_ring_gfn},
                    {"xenstore_ring", d->xenstore_ring_gfn}};
    for (const auto& s : specials) {
      if (s.gfn != kInvalidGfn && s.gfn >= d->p2m.size()) {
        return "dom " + DomStr(id) + " special gfn " + s.name + "=" +
               std::to_string(s.gfn) + " outside p2m of " + std::to_string(d->p2m.size()) +
               " pages";
      }
    }
  }
  return "";
}

std::string CheckGrantInvariants(const Hypervisor& hv) {
  // (mapper, granter, ref) -> multiplicity, built from both sides; the two
  // maps must agree exactly (no dangling handle on either side).
  std::map<std::tuple<DomId, DomId, GrantRef>, std::uint64_t> granter_side;
  std::map<std::tuple<DomId, DomId, GrantRef>, std::uint64_t> mapper_side;
  for (DomId id : hv.DomainIds()) {
    const Domain* d = hv.FindDomain(id);
    for (GrantRef ref = 0; ref < d->grants.used_limit(); ++ref) {
      const GrantEntry& e = d->grants.entry(ref);
      if (!e.in_use) {
        if (e.map_count != 0 || !e.mappers.empty()) {
          return "dom " + DomStr(id) + " grant ref " + std::to_string(ref) +
                 " free but still mapped";
        }
        continue;
      }
      if (e.gfn >= d->p2m.size()) {
        return "dom " + DomStr(id) + " grant ref " + std::to_string(ref) +
               " grants gfn " + std::to_string(e.gfn) + " outside its p2m";
      }
      if (e.map_count != e.mappers.size()) {
        return "dom " + DomStr(id) + " grant ref " + std::to_string(ref) + " map_count " +
               std::to_string(e.map_count) + " != " + std::to_string(e.mappers.size()) +
               " recorded mappers";
      }
      for (DomId mapper : e.mappers) {
        if (hv.FindDomain(mapper) == nullptr) {
          return "dom " + DomStr(id) + " grant ref " + std::to_string(ref) +
                 " mapped by dead domain " + DomStr(mapper);
        }
        ++granter_side[{mapper, id, ref}];
      }
    }
    for (const auto& [granter, ref] : d->grant_maps) {
      const Domain* g = hv.FindDomain(granter);
      if (g == nullptr) {
        return "dom " + DomStr(id) + " holds a mapping into dead granter " + DomStr(granter);
      }
      if (!g->grants.entry(ref).in_use) {
        return "dom " + DomStr(id) + " holds a mapping of revoked grant " + DomStr(granter) +
               ":" + std::to_string(ref);
      }
      ++mapper_side[{id, granter, ref}];
    }
  }
  if (granter_side != mapper_side) {
    for (const auto& [key, n] : granter_side) {
      auto it = mapper_side.find(key);
      if (it == mapper_side.end() || it->second != n) {
        return "grant bookkeeping split-brain: granter " + DomStr(std::get<1>(key)) +
               " ref " + std::to_string(std::get<2>(key)) + " lists mapper " +
               DomStr(std::get<0>(key)) + " x" + std::to_string(n) +
               ", mapper records x" +
               std::to_string(it == mapper_side.end() ? 0 : it->second);
      }
    }
    for (const auto& [key, n] : mapper_side) {
      if (!granter_side.contains(key)) {
        return "grant bookkeeping split-brain: mapper " + DomStr(std::get<0>(key)) +
               " records a mapping of " + DomStr(std::get<1>(key)) + ":" +
               std::to_string(std::get<2>(key)) + " the granter does not list";
      }
    }
  }
  return "";
}

std::string CheckEvtchnInvariants(const Hypervisor& hv) {
  for (DomId id : hv.DomainIds()) {
    const Domain* d = hv.FindDomain(id);
    for (EvtchnPort p = 1; p < d->evtchns.used_port_limit(); ++p) {
      const EvtchnEntry& e = d->evtchns.entry(p);
      if (e.pending && e.state != EvtchnState::kInterdomain &&
          e.state != EvtchnState::kVirq) {
        return "dom " + DomStr(id) + " port " + std::to_string(p) +
               " pending on a disconnected channel";
      }
      if (e.state != EvtchnState::kInterdomain) {
        continue;
      }
      // A connected channel names a concrete, live peer whose remote_port
      // entry is itself connected. (It need not point back here: IDC fan-in
      // entries are many-to-one by design.) kUnbound entries naming a dead
      // domain are legal reservations and carry no delivery path.
      if (e.remote_dom == kDomChild || e.remote_dom == kDomInvalid ||
          e.remote_dom == kDomCow) {
        return "dom " + DomStr(id) + " port " + std::to_string(p) +
               " connected to pseudo-domain " + DomStr(e.remote_dom);
      }
      const Domain* remote = hv.FindDomain(e.remote_dom);
      if (remote == nullptr) {
        return "dangling evtchn: dom " + DomStr(id) + " port " + std::to_string(p) +
               " connected to dead domain " + DomStr(e.remote_dom);
      }
      if (e.remote_port >= remote->evtchns.max_ports()) {
        return "dom " + DomStr(id) + " port " + std::to_string(p) +
               " connected to out-of-range remote port " + std::to_string(e.remote_port);
      }
      if (remote->evtchns.entry(e.remote_port).state != EvtchnState::kInterdomain) {
        return "dangling evtchn: dom " + DomStr(id) + " port " + std::to_string(p) +
               " connected to " + DomStr(e.remote_dom) + ":" +
               std::to_string(e.remote_port) + " which is not connected";
      }
    }
  }
  return "";
}

std::string CheckHypervisorInvariants(const Hypervisor& hv) {
  for (const InvariantLayer& layer : kHypervisorInvariantLayers) {
    if (std::string msg = layer.check(hv); !msg.empty()) {
      return msg;
    }
  }
  return "";
}

}  // namespace nephele
