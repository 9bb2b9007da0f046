#include "src/hypervisor/frame_table.h"

#include <cstring>

namespace nephele {

FrameTable::FrameTable(std::size_t total_frames) : total_(total_frames) {
  // Address space only: no FrameInfo is built, so no page is touched.
  frames_.reserve(total_frames);
}

Result<Mfn> FrameTable::Alloc(DomId owner) {
  Mfn mfn = kInvalidMfn;
  if (!free_list_.empty()) {
    mfn = free_list_.back();
    free_list_.pop_back();
  } else if (frames_.size() < total_) {
    mfn = static_cast<Mfn>(frames_.size());
    frames_.emplace_back();
  } else {
    return ErrResourceExhausted("machine memory pool empty");
  }
  FrameInfo& f = frames_[mfn];
  f.owner = owner;
  f.refcount = 1;
  f.shared = false;
  f.allocated = true;
  f.data.reset();  // frames are scrubbed: reads are zero until written
  return mfn;
}

Status FrameTable::CheckAllocated(Mfn mfn) const {
  if (mfn >= frames_.size() || !frames_[mfn].allocated) {
    return ErrInvalidArgument("mfn not allocated");
  }
  return Status::Ok();
}

Status FrameTable::Release(Mfn mfn) {
  NEPHELE_RETURN_IF_ERROR(CheckAllocated(mfn));
  FrameInfo& f = frames_[mfn];
  if (f.shared && f.refcount > 1) {
    --f.refcount;
    --saved_by_sharing_;
    return Status::Ok();
  }
  if (f.shared) {
    --shared_count_;
  }
  f = FrameInfo{};
  free_list_.push_back(mfn);
  return Status::Ok();
}

Status FrameTable::ShareFirst(Mfn mfn) {
  NEPHELE_RETURN_IF_ERROR(CheckAllocated(mfn));
  FrameInfo& f = frames_[mfn];
  if (f.shared) {
    return ErrFailedPrecondition("frame already shared");
  }
  f.owner = kDomCow;
  f.shared = true;
  f.refcount = 2;
  ++shared_count_;
  ++saved_by_sharing_;
  return Status::Ok();
}

Status FrameTable::ShareAgain(Mfn mfn) {
  NEPHELE_RETURN_IF_ERROR(CheckAllocated(mfn));
  FrameInfo& f = frames_[mfn];
  if (!f.shared) {
    return ErrFailedPrecondition("frame not shared");
  }
  ++f.refcount;
  ++saved_by_sharing_;
  return Status::Ok();
}

Status FrameTable::Unshare(Mfn mfn, DomId new_owner) {
  NEPHELE_RETURN_IF_ERROR(CheckAllocated(mfn));
  FrameInfo& f = frames_[mfn];
  if (!f.shared || f.refcount != 2) {
    return ErrFailedPrecondition("unshare needs a shared frame with exactly two refs");
  }
  f.owner = new_owner;
  f.shared = false;
  f.refcount = 1;
  --shared_count_;
  --saved_by_sharing_;
  return Status::Ok();
}

Result<FrameTable::CowResolution> FrameTable::ResolveCowWrite(Mfn mfn, DomId writer) {
  NEPHELE_RETURN_IF_ERROR(CheckAllocated(mfn));
  FrameInfo& f = frames_[mfn];
  if (!f.shared) {
    return ErrFailedPrecondition("COW write on unshared frame");
  }
  if (f.refcount == 1) {
    // Last sharer: hand the frame over in place; no copy needed. The new
    // owner may differ from the original owner (Sec. 5.2).
    f.owner = writer;
    f.shared = false;
    --shared_count_;
    return CowResolution{mfn, /*copied=*/false};
  }
  NEPHELE_ASSIGN_OR_RETURN(Mfn copy, Alloc(writer));
  if (f.data != nullptr) {
    CopyPage(mfn, copy);
  }
  --f.refcount;
  --saved_by_sharing_;
  return CowResolution{copy, /*copied=*/true};
}

void FrameTable::ReadBytes(Mfn mfn, std::size_t offset, std::uint8_t* out,
                           std::size_t len) const {
  const FrameInfo& f = info(mfn);
  if (f.data == nullptr) {
    std::memset(out, 0, len);
    return;
  }
  std::memcpy(out, f.data->data() + offset, len);
}

void FrameTable::WriteBytes(Mfn mfn, std::size_t offset, const std::uint8_t* src,
                            std::size_t len) {
  FrameInfo& f = frames_[mfn];
  if (f.data == nullptr) {
    f.data = std::make_unique<PageData>();
    f.data->fill(0);
  }
  std::memcpy(f.data->data() + offset, src, len);
}

void FrameTable::CopyPage(Mfn src, Mfn dst) {
  FrameInfo& s = frames_[src];
  FrameInfo& d = frames_[dst];
  if (s.data == nullptr) {
    d.data.reset();
    return;
  }
  if (d.data == nullptr) {
    d.data = std::make_unique<PageData>();
  }
  *d.data = *s.data;
}

}  // namespace nephele
