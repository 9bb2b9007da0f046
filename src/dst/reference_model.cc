#include "src/dst/reference_model.h"

#include <cassert>

namespace nephele {

ReferenceModel::DomainModel& ReferenceModel::At(DomId dom) {
  auto it = domains_.find(dom);
  assert(it != domains_.end());
  return it->second;
}

const ReferenceModel::DomainModel* ReferenceModel::Find(DomId dom) const {
  auto it = domains_.find(dom);
  return it == domains_.end() ? nullptr : &it->second;
}

void ReferenceModel::Launch(DomId dom) {
  DomainModel fresh;
  // A booted guest owns its heap pages privately: every tracked page starts
  // writable and zero-filled.
  fresh.writable.fill(true);
  domains_[dom] = std::move(fresh);
}

void ReferenceModel::CloneBatchPlanned(DomId parent, std::uint32_t n) {
  DomainModel& p = At(parent);
  // The first stage shares every non-private page of the parent, flipping
  // writable ptes read-only. This sticks even when children later abort in
  // the second stage (stage-2 unwind destroys the child; it does not
  // un-share the parent).
  p.writable.fill(false);
  p.clones_created += n;
}

void ReferenceModel::CloneChild(DomId parent, DomId child, bool lazy) {
  const DomainModel& p = At(parent);
  DomainModel c;
  c.parent = parent;
  c.is_clone = true;
  c.lazy = lazy;
  c.cells = p.cells;  // inherits the parent's view of every cell
  c.writable.fill(false);
  c.xs_data = p.xs_data;  // xs_clone copies the whole per-domain directory
  domains_[child] = std::move(c);
}

void ReferenceModel::Write(DomId dom, std::uint32_t slot, std::uint8_t value) {
  DomainModel& d = At(dom);
  slot %= kCells;
  std::size_t page = SlotPage(slot);
  if (!d.writable[page]) {
    // COW resolution: the pte flips writable and — for a clone — the page
    // lands on the dirty list (again, if it was re-shared by a later clone
    // or reset; CloneReset tolerates the duplicate).
    d.writable[page] = true;
    if (d.is_clone) {
      d.dirty.push_back(static_cast<std::uint8_t>(page));
    }
  }
  d.cells[slot] = value;
}

std::optional<std::size_t> ReferenceModel::Reset(DomId dom) {
  DomainModel& d = At(dom);
  if (d.tainted) {
    d.tainted = false;
    d.dirty.clear();
    return std::nullopt;
  }
  DomainModel& p = At(d.parent);
  const std::size_t restored = d.dirty.size();
  for (std::uint8_t page : d.dirty) {
    // Re-share with the parent's *current* frame: the child takes over
    // whatever the parent's page holds now, and both ptes go read-only.
    for (std::size_t s = page * kSlotsPerPage; s < (page + 1u) * kSlotsPerPage; ++s) {
      d.cells[s] = p.cells[s];
    }
    d.writable[page] = false;
    p.writable[page] = false;
  }
  d.dirty.clear();
  return restored;
}

void ReferenceModel::Destroy(DomId dom) {
  DomainModel erased = std::move(At(dom));
  domains_.erase(dom);
  // The hypervisor re-parents orphans to the grandparent so ancestry queries
  // keep working for the rest of the family.
  for (auto& [id, d] : domains_) {
    if (d.parent == dom) {
      d.parent = erased.parent;
    }
  }
}

std::size_t ReferenceModel::MigrateOut(DomId dom) {
  StreamModel stream;
  stream.cells = At(dom).cells;
  streams_.push_back(stream);
  domains_.erase(dom);  // no family by precondition: nothing to re-parent
  return streams_.size() - 1;
}

void ReferenceModel::MigrateIn(std::size_t stream, DomId new_dom) {
  DomainModel fresh;
  fresh.cells = streams_[stream % streams_.size()].cells;
  // Immigration materialises private frames for everything it writes and
  // fresh writable pages for the rest; either way no sharing exists.
  fresh.writable.fill(true);
  domains_[new_dom] = std::move(fresh);
}

void ReferenceModel::DeviceIo(DomId dom, std::uint32_t key, std::string value) {
  At(dom).xs_data[key] = std::move(value);
}

void ReferenceModel::Observe(DomId dom, const std::array<std::uint8_t, kCells>& cells,
                             const std::array<bool, kTrackedPages>& writable) {
  DomainModel& d = At(dom);
  d.cells = cells;
  d.writable = writable;
}

void ReferenceModel::Taint(DomId dom) {
  DomainModel& d = At(dom);
  d.tainted = true;
  d.dirty.clear();
}

bool ReferenceModel::CanReset(DomId dom) const {
  const DomainModel* d = Find(dom);
  // Mirrors clone_reset validation: the domain must have a live parent edge.
  return d != nullptr && d->parent != kDomInvalid && Find(d->parent) != nullptr;
}

bool ReferenceModel::CanMigrateOut(DomId dom) const {
  const DomainModel* d = Find(dom);
  if (d == nullptr || d->parent != kDomInvalid) {
    return false;
  }
  for (const auto& [id, other] : domains_) {
    if (other.parent == dom) {
      return false;
    }
  }
  return true;
}

bool ReferenceModel::CloneWouldValidate(DomId parent, std::uint32_t max_clones,
                                        std::uint32_t n) const {
  const DomainModel* d = Find(parent);
  return d != nullptr && n > 0 && d->clones_created + n <= max_clones;
}

}  // namespace nephele
