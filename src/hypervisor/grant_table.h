// Per-domain grant table: the Xen primitive for sharing memory across
// domains. Nephele extends the interface with the DOMID_CHILD wildcard
// (Sec. 5.1): grants made to kDomChild are valid for every future clone of
// the granting domain.
//
// The table is sized by use: entries exist only up to one past the highest
// ref ever handed out (the used limit), growing on demand up to the
// configured cap and never shrinking. Refs above the used limit read as
// free, so every sweep stops at used_limit() instead of max_entries().

#ifndef SRC_HYPERVISOR_GRANT_TABLE_H_
#define SRC_HYPERVISOR_GRANT_TABLE_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/base/result.h"
#include "src/hypervisor/types.h"

namespace nephele {

struct GrantEntry {
  bool in_use = false;
  // Domain allowed to map the granted page; may be kDomChild.
  DomId grantee = kDomInvalid;
  // The granting domain's frame being shared.
  Gfn gfn = kInvalidGfn;
  bool readonly = false;
  // Count of active mappings; the entry cannot be revoked while nonzero.
  // Who holds them is in the table's mapping list (GrantTable::mappings()).
  std::uint32_t map_count = 0;
};
// Entries are plain data, so growing, copying and cloning a table moves
// bytes and never runs per-entry constructors.
static_assert(std::is_trivially_copyable_v<GrantEntry>);

// One active mapping of a grant: `mapper` holds a mapping of `ref`. A domain
// mapping the same ref twice appears twice.
struct GrantMapping {
  GrantRef ref = 0;
  DomId mapper = kDomInvalid;
};

class GrantTable {
 public:
  explicit GrantTable(std::size_t max_entries = 1024) : max_entries_(max_entries) {}

  std::size_t max_entries() const { return max_entries_; }
  std::size_t active_entries() const { return active_; }

  // One past the highest ref ever allocated (monotone). Refs at or above
  // this are guaranteed free.
  std::size_t used_limit() const { return entries_.size(); }

  // Grants `grantee` access to `gfn`. Returns the lowest free grant ref.
  Result<GrantRef> GrantAccess(DomId grantee, Gfn gfn, bool readonly);

  // Revokes a grant. Fails while mappings are outstanding.
  Status EndAccess(GrantRef ref);

  // Checks that `mapper` may map `ref`; increments the map count.
  // `granter_children_ok` tells whether `mapper` is a clone of the granting
  // domain, which validates kDomChild wildcard entries.
  Result<Gfn> Map(GrantRef ref, DomId mapper, bool mapper_is_child_of_granter);

  // Drops one of `mapper`'s mappings of `ref`. A caller holding no mapping
  // cannot decrement someone else's: kFailedPrecondition when the entry is
  // unmapped, kPermissionDenied when it is mapped but not by `mapper`.
  Status Unmap(GrantRef ref, DomId mapper);

  // Any ref may be read; one at or above used_limit() reads as free.
  const GrantEntry& entry(GrantRef ref) const;

  // Every active mapping of this table's grants, in the order they were
  // made; each in-use entry's map_count equals its number of elements here.
  // Kept so unmap can reject foreign callers and domain destruction can
  // revoke exactly the mappings that exist.
  const std::vector<GrantMapping>& mappings() const { return mappings_; }

  // Drops every mapping (map counts go to zero) and returns them, for
  // destroy-time revocation of the mapper-side records.
  std::vector<GrantMapping> RevokeAllMappings();

  // Copy used by the clone first stage: the child inherits every in-use
  // entry and the parent's cap. Wildcard (kDomChild) entries stay wildcards
  // in the child so that grandchildren work; map counts reset.
  GrantTable CloneForChild() const;

 private:
  bool InUse(GrantRef ref) const { return ref < entries_.size() && entries_[ref].in_use; }

  std::vector<GrantEntry> entries_;
  std::vector<GrantMapping> mappings_;
  std::size_t max_entries_;
  std::size_t active_ = 0;
  // No free entry below this index: allocation starts its search here.
  std::size_t free_hint_ = 0;
};

}  // namespace nephele

#endif  // SRC_HYPERVISOR_GRANT_TABLE_H_
