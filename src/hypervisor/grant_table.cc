#include "src/hypervisor/grant_table.h"

#include <algorithm>

namespace nephele {

Result<GrantRef> GrantTable::GrantAccess(DomId grantee, Gfn gfn, bool readonly) {
  std::size_t i = free_hint_;
  while (i < entries_.size() && entries_[i].in_use) {
    ++i;
  }
  if (i == entries_.size()) {
    if (i >= max_entries_) {
      return ErrResourceExhausted("grant table full");
    }
    entries_.emplace_back();
  }
  entries_[i] = GrantEntry{/*in_use=*/true, grantee, gfn, readonly, /*map_count=*/0,
                           /*mappers=*/{}};
  ++active_;
  free_hint_ = i + 1;
  return static_cast<GrantRef>(i);
}

Status GrantTable::EndAccess(GrantRef ref) {
  if (!InUse(ref)) {
    return ErrNotFound("grant ref not in use");
  }
  if (entries_[ref].map_count != 0) {
    return ErrFailedPrecondition("grant still mapped");
  }
  entries_[ref] = GrantEntry{};
  --active_;
  free_hint_ = std::min<std::size_t>(free_hint_, ref);
  return Status::Ok();
}

Result<Gfn> GrantTable::Map(GrantRef ref, DomId mapper, bool mapper_is_child_of_granter) {
  if (!InUse(ref)) {
    return ErrNotFound("grant ref not in use");
  }
  GrantEntry& e = entries_[ref];
  bool allowed = (e.grantee == mapper) ||
                 (e.grantee == kDomChild && mapper_is_child_of_granter);
  if (!allowed) {
    return ErrPermissionDenied("domain not granted access");
  }
  ++e.map_count;
  e.mappers.push_back(mapper);
  return e.gfn;
}

Status GrantTable::Unmap(GrantRef ref, DomId mapper) {
  if (!InUse(ref)) {
    return ErrNotFound("grant ref not in use");
  }
  GrantEntry& e = entries_[ref];
  if (e.map_count == 0) {
    return ErrFailedPrecondition("grant not mapped");
  }
  auto it = std::find(e.mappers.begin(), e.mappers.end(), mapper);
  if (it == e.mappers.end()) {
    return ErrPermissionDenied("mapping not held by caller");
  }
  e.mappers.erase(it);
  --e.map_count;
  return Status::Ok();
}

const GrantEntry& GrantTable::entry(GrantRef ref) const {
  static const GrantEntry kFree;
  return ref < entries_.size() ? entries_[ref] : kFree;
}

GrantTable GrantTable::CloneForChild() const {
  GrantTable child(max_entries_);
  child.entries_.resize(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const GrantEntry& e = entries_[i];
    if (e.in_use) {
      child.entries_[i] = GrantEntry{e.in_use, e.grantee, e.gfn, e.readonly,
                                     /*map_count=*/0, /*mappers=*/{}};
      ++child.active_;
    }
  }
  child.free_hint_ = free_hint_;
  return child;
}

}  // namespace nephele
