#include <gtest/gtest.h>

#include <vector>

#include "src/hypervisor/frame_table.h"
#include "src/sim/rng.h"

namespace nephele {
namespace {

TEST(FrameTable, AllocAndRelease) {
  FrameTable ft(16);
  EXPECT_EQ(ft.free_frames(), 16u);
  auto mfn = ft.Alloc(1);
  ASSERT_TRUE(mfn.ok());
  EXPECT_EQ(ft.free_frames(), 15u);
  EXPECT_EQ(ft.OwnerOf(*mfn), 1);
  EXPECT_TRUE(ft.Release(*mfn).ok());
  EXPECT_EQ(ft.free_frames(), 16u);
}

TEST(FrameTable, ExhaustionReported) {
  FrameTable ft(2);
  EXPECT_TRUE(ft.Alloc(1).ok());
  EXPECT_TRUE(ft.Alloc(1).ok());
  auto r = ft.Alloc(1);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FrameTable, ReleasedFramesAreReusable) {
  FrameTable ft(1);
  auto a = ft.Alloc(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(ft.Release(*a).ok());
  auto b = ft.Alloc(2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(ft.OwnerOf(*b), 2);
}

TEST(FrameTable, ShareTransfersOwnershipToDomCow) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(mfn.ok());
  ASSERT_TRUE(ft.ShareFirst(*mfn).ok());
  EXPECT_TRUE(ft.IsShared(*mfn));
  EXPECT_EQ(ft.OwnerOf(*mfn), kDomCow);
  EXPECT_EQ(ft.info(*mfn).refcount, 2u);
  EXPECT_EQ(ft.shared_frames(), 1u);
  EXPECT_EQ(ft.frames_saved_by_sharing(), 1u);
}

TEST(FrameTable, ShareFirstRejectsDoubleShare) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(ft.ShareFirst(*mfn).ok());
  EXPECT_EQ(ft.ShareFirst(*mfn).code(), StatusCode::kFailedPrecondition);
}

TEST(FrameTable, ShareAgainIncrementsRefcount) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(ft.ShareFirst(*mfn).ok());
  ASSERT_TRUE(ft.ShareAgain(*mfn).ok());
  EXPECT_EQ(ft.info(*mfn).refcount, 3u);
  EXPECT_EQ(ft.frames_saved_by_sharing(), 2u);
}

TEST(FrameTable, ShareAgainRequiresShared) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  EXPECT_EQ(ft.ShareAgain(*mfn).code(), StatusCode::kFailedPrecondition);
}

TEST(FrameTable, CowWriteWithMultipleSharersCopies) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  std::uint8_t data[] = {0xAA};
  ft.WriteBytes(*mfn, 0, data, 1);
  ASSERT_TRUE(ft.ShareFirst(*mfn).ok());
  auto res = ft.ResolveCowWrite(*mfn, 6);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->copied);
  EXPECT_NE(res->mfn, *mfn);
  EXPECT_EQ(ft.OwnerOf(res->mfn), 6);
  // Contents were copied.
  std::uint8_t out = 0;
  ft.ReadBytes(res->mfn, 0, &out, 1);
  EXPECT_EQ(out, 0xAA);
  // Original still shared with refcount 1.
  EXPECT_TRUE(ft.IsShared(*mfn));
  EXPECT_EQ(ft.info(*mfn).refcount, 1u);
}

TEST(FrameTable, LastSharerGetsOwnershipInPlace) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(ft.ShareFirst(*mfn).ok());
  auto first = ft.ResolveCowWrite(*mfn, 6);
  ASSERT_TRUE(first.ok());
  // refcount dropped to 1: the next fault transfers ownership — possibly to
  // a domain different from the original owner (Sec. 5.2).
  auto second = ft.ResolveCowWrite(*mfn, 7);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->copied);
  EXPECT_EQ(second->mfn, *mfn);
  EXPECT_EQ(ft.OwnerOf(*mfn), 7);
  EXPECT_FALSE(ft.IsShared(*mfn));
  EXPECT_EQ(ft.shared_frames(), 0u);
}

TEST(FrameTable, ReleaseSharedDropsRefcount) {
  FrameTable ft(4);
  auto mfn = ft.Alloc(5);
  ASSERT_TRUE(ft.ShareFirst(*mfn).ok());
  std::size_t free_before = ft.free_frames();
  ASSERT_TRUE(ft.Release(*mfn).ok());
  EXPECT_EQ(ft.free_frames(), free_before);  // still held by one sharer
  EXPECT_EQ(ft.info(*mfn).refcount, 1u);
  ASSERT_TRUE(ft.Release(*mfn).ok());
  EXPECT_EQ(ft.free_frames(), free_before + 1);  // now actually freed
}

TEST(FrameTable, UnwrittenFramesReadZero) {
  FrameTable ft(2);
  auto mfn = ft.Alloc(1);
  std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ft.ReadBytes(*mfn, 100, buf, 8);
  for (std::uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(ft.info(*mfn).data, nullptr);  // lazily materialised
}

TEST(FrameTable, WriteMaterialisesLazily) {
  FrameTable ft(2);
  auto mfn = ft.Alloc(1);
  std::uint8_t b = 0x5A;
  ft.WriteBytes(*mfn, kPageSize - 1, &b, 1);
  ASSERT_NE(ft.info(*mfn).data, nullptr);
  std::uint8_t out = 0;
  ft.ReadBytes(*mfn, kPageSize - 1, &out, 1);
  EXPECT_EQ(out, 0x5A);
}

TEST(FrameTable, CopyPageHandlesUnmaterialisedSource) {
  FrameTable ft(4);
  auto src = ft.Alloc(1);
  auto dst = ft.Alloc(1);
  std::uint8_t b = 9;
  ft.WriteBytes(*dst, 0, &b, 1);
  ft.CopyPage(*src, *dst);  // src has no data: dst resets to zero semantics
  std::uint8_t out = 1;
  ft.ReadBytes(*dst, 0, &out, 1);
  EXPECT_EQ(out, 0);
}

TEST(FrameTable, InvalidMfnRejected) {
  FrameTable ft(2);
  EXPECT_EQ(ft.Release(99).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ft.ShareFirst(0).code(), StatusCode::kInvalidArgument);  // not allocated
}

// Property: across an arbitrary interleaving of alloc/share/cow/release,
// frames are conserved: free + allocated == total, and every shared frame
// keeps refcount >= 1 (DESIGN.md invariant 1).
class FrameConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameConservation, RandomOperationSequence) {
  FrameTable ft(64);
  Rng rng(GetParam());
  std::vector<Mfn> owned;
  std::vector<Mfn> shared;
  for (int step = 0; step < 2000; ++step) {
    switch (rng.NextBelow(4)) {
      case 0: {
        auto mfn = ft.Alloc(static_cast<DomId>(1 + rng.NextBelow(5)));
        if (mfn.ok()) {
          owned.push_back(*mfn);
        }
        break;
      }
      case 1: {
        if (!owned.empty()) {
          std::size_t i = rng.NextBelow(owned.size());
          if (ft.ShareFirst(owned[i]).ok()) {
            shared.push_back(owned[i]);
            shared.push_back(owned[i]);  // two logical holders
            owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(i));
          }
        }
        break;
      }
      case 2: {
        if (!shared.empty()) {
          std::size_t i = rng.NextBelow(shared.size());
          Mfn m = shared[i];
          auto res = ft.ResolveCowWrite(m, static_cast<DomId>(1 + rng.NextBelow(5)));
          if (res.ok()) {
            shared.erase(shared.begin() + static_cast<std::ptrdiff_t>(i));
            owned.push_back(res->mfn);
          }
        }
        break;
      }
      default: {
        if (!owned.empty() && rng.NextBool(0.5)) {
          std::size_t i = rng.NextBelow(owned.size());
          EXPECT_TRUE(ft.Release(owned[i]).ok());
          owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (!shared.empty()) {
          std::size_t i = rng.NextBelow(shared.size());
          EXPECT_TRUE(ft.Release(shared[i]).ok());
          shared.erase(shared.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      }
    }
    EXPECT_EQ(ft.free_frames() + ft.allocated_frames(), ft.total_frames());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameConservation,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace nephele
