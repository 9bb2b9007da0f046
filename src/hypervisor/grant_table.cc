#include "src/hypervisor/grant_table.h"

#include <algorithm>
#include <utility>

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
  entries_[i] = GrantEntry{/*in_use=*/true, grantee, gfn, readonly, /*map_count=*/0};
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
  mappings_.push_back(GrantMapping{ref, mapper});
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
  auto it = std::find_if(mappings_.begin(), mappings_.end(), [&](const GrantMapping& m) {
    return m.ref == ref && m.mapper == mapper;
  });
  if (it == mappings_.end()) {
    return ErrPermissionDenied("mapping not held by caller");
  }
  mappings_.erase(it);
  --e.map_count;
  return Status::Ok();
}

const GrantEntry& GrantTable::entry(GrantRef ref) const {
  static const GrantEntry kFree;
  return ref < entries_.size() ? entries_[ref] : kFree;
}

std::vector<GrantMapping> GrantTable::RevokeAllMappings() {
  for (const GrantMapping& m : mappings_) {
    entries_[m.ref].map_count = 0;
  }
  return std::exchange(mappings_, {});
}

GrantTable GrantTable::CloneForChild() const {
  GrantTable child(max_entries_);
  child.entries_ = entries_;
  for (const GrantMapping& m : mappings_) {
    child.entries_[m.ref].map_count = 0;
  }
  child.active_ = active_;
  child.free_hint_ = free_hint_;
  return child;
}

}  // namespace nephele
