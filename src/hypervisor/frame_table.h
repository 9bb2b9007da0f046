// Machine frame table: ownership, sharing and accounting for every 4 KiB
// frame of simulated machine memory.
//
// The table is paid for by use, like the pool it models. Frame metadata
// exists only up to one past the highest mfn ever handed out (the used
// limit): the constructor reserves address space for the whole pool but
// touches none of it, and a frame's FrameInfo is built the first time the
// frame is allocated. An mfn at or above used_limit() reads as free. Page
// contents are materialised lazily too: a frame carries real bytes only
// once somebody writes to it. This keeps density experiments (Fig. 5: ~9000
// 4 MiB guests in a 12 GiB pool) cheap while preserving exact accounting and
// observable COW semantics for frames that are actually used.

#ifndef SRC_HYPERVISOR_FRAME_TABLE_H_
#define SRC_HYPERVISOR_FRAME_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hypervisor/types.h"

namespace nephele {

using PageData = std::array<std::uint8_t, kPageSize>;

// Per-frame metadata (Xen's struct page_info analogue).
struct FrameInfo {
  DomId owner = kDomInvalid;
  // Number of domains mapping the frame. >1 only while owned by kDomCow.
  std::uint32_t refcount = 0;
  // Set once the frame entered COW sharing (owner == kDomCow).
  bool shared = false;
  bool allocated = false;
  // Lazily materialised contents; null means "all zeroes, never written".
  std::unique_ptr<PageData> data;
};

class FrameTable {
 public:
  // Creates a pool of `total_frames` free frames.
  explicit FrameTable(std::size_t total_frames);

  FrameTable(const FrameTable&) = delete;
  FrameTable& operator=(const FrameTable&) = delete;

  std::size_t total_frames() const { return total_; }
  std::size_t free_frames() const { return total_ - allocated_frames(); }
  std::size_t allocated_frames() const { return frames_.size() - free_list_.size(); }
  // One past the highest mfn ever allocated (monotone). Mfns at or above
  // this were never handed out and read as free.
  std::size_t used_limit() const { return frames_.size(); }
  // Number of frames currently in COW sharing (owned by dom_cow).
  std::size_t shared_frames() const { return shared_count_; }
  // Sum of refcounts of shared frames minus the frames themselves: how many
  // frame-allocations COW sharing is currently saving.
  std::size_t frames_saved_by_sharing() const { return saved_by_sharing_; }

  // Allocates one frame for `owner`: the most recently freed frame if any,
  // else the lowest never-used mfn. Fails with kResourceExhausted when the
  // pool is empty.
  Result<Mfn> Alloc(DomId owner);

  // Releases one reference to `mfn`:
  //  - unshared frame: frees it;
  //  - shared frame with refcount > 1: drops the refcount;
  //  - shared frame with refcount == 1: frees it.
  Status Release(Mfn mfn);

  // First-time sharing: transfers ownership to dom_cow and sets refcount to 2
  // (the parent and the first clone). Precondition: frame is allocated and
  // not yet shared.
  Status ShareFirst(Mfn mfn);

  // Adds one more sharer to an already-shared frame.
  Status ShareAgain(Mfn mfn);

  // Exact inverse of ShareFirst, for clone rollback: a shared frame whose
  // two references are the parent and the aborted clone goes back to being
  // privately owned by `new_owner`. Precondition: shared with refcount == 2.
  Status Unshare(Mfn mfn, DomId new_owner);

  // Resolves a write to a shared frame for domain `writer`:
  //  - refcount > 1: allocates a private copy, copies contents, drops one
  //    reference from the shared frame, returns the new mfn (a real copy).
  //  - refcount == 1: transfers ownership from dom_cow to `writer` in place
  //    (Sec. 5.2: "on the next page fault the ownership is transferred"),
  //    returns the same mfn.
  struct CowResolution {
    Mfn mfn;
    bool copied;  // true when a fresh frame was allocated
  };
  Result<CowResolution> ResolveCowWrite(Mfn mfn, DomId writer);

  // Raw accessors. Any mfn may be read; one at or above used_limit() reads
  // as a free frame.
  const FrameInfo& info(Mfn mfn) const { return mfn < frames_.size() ? frames_[mfn] : kFree; }
  bool IsShared(Mfn mfn) const { return info(mfn).shared; }
  DomId OwnerOf(Mfn mfn) const { return info(mfn).owner; }

  // Reads `len` bytes at `offset` within the frame. Unwritten frames read as
  // zeroes.
  void ReadBytes(Mfn mfn, std::size_t offset, std::uint8_t* out, std::size_t len) const;

  // Writes bytes into the frame, materialising contents on demand. Does NOT
  // perform COW resolution — callers go through Hypervisor/Domain which holds
  // the p2m. Precondition: frame allocated.
  void WriteBytes(Mfn mfn, std::size_t offset, const std::uint8_t* src, std::size_t len);

  // Copies the full contents of `src` into `dst` (both allocated).
  void CopyPage(Mfn src, Mfn dst);

 private:
  Status CheckAllocated(Mfn mfn) const;

  static inline const FrameInfo kFree{};

  std::size_t total_;
  // Indexed by mfn, up to the used limit.
  std::vector<FrameInfo> frames_;
  // Freed mfns below the used limit, reused most recently freed first.
  std::vector<Mfn> free_list_;
  std::size_t shared_count_ = 0;
  std::size_t saved_by_sharing_ = 0;
};

}  // namespace nephele

#endif  // SRC_HYPERVISOR_FRAME_TABLE_H_
