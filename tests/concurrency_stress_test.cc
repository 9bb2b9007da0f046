// Stress suite for interleaved clone-family work (carries the `stress`
// ctest label). Rounds of mixed work — multi-child clone batches, COW
// faults, memory resets, destroys and armed fault points forcing mid-batch
// rollbacks — with the frame-ownership invariants re-checked after every
// round.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "tests/frame_invariants.h"

namespace nephele {
namespace {

constexpr std::uint8_t kPattern[8] = {0x5a, 7, 6, 5, 4, 3, 2, 1};

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  static SystemConfig StressSystem() {
    SystemConfig cfg;
    cfg.hypervisor.pool_frames = 256 * 1024;
    return cfg;
  }

  static DomainConfig ParentConfig() {
    DomainConfig cfg;
    cfg.name = "stress";
    cfg.memory_mb = 4;
    cfg.max_clones = 4096;
    cfg.with_vif = true;
    return cfg;
  }

  static Gfn FirstDataGfn() { return static_cast<Gfn>(ParentConfig().image_text_pages); }

  static Mfn StartInfoMfn(NepheleSystem& sys, DomId dom) {
    const Domain* d = sys.hypervisor().FindDomain(dom);
    return d->p2m[d->start_info_gfn].mfn;
  }

  static void ExpectParentPatternIntact(NepheleSystem& sys, DomId parent) {
    for (Gfn i = 0; i < 4; ++i) {
      std::uint8_t got[sizeof(kPattern)] = {};
      ASSERT_TRUE(
          sys.hypervisor().ReadGuestPage(parent, FirstDataGfn() + i, 0, got, sizeof(got)).ok());
      EXPECT_EQ(std::memcmp(got, kPattern, sizeof(kPattern)), 0)
          << "parent page " << (FirstDataGfn() + i) << " corrupted at round";
    }
  }
};

// The main stress loop: every round clones a batch, COW-writes in some
// children, resets one, destroys a couple, and every other round arms a
// fault point so a batch fails mid-plan and rolls back. Invariants hold
// after every round; full teardown leaks nothing.
TEST_F(ConcurrencyStressTest, MixedWorkloadKeepsInvariantsEveryRound) {
  NepheleSystem sys(StressSystem());
  const std::size_t initial_free = sys.hypervisor().FreePoolFrames();

  auto parent = sys.toolstack().CreateDomain(ParentConfig());
  ASSERT_TRUE(parent.ok());
  sys.Settle();
  for (Gfn i = 0; i < 4; ++i) {
    ASSERT_TRUE(sys.hypervisor()
                    .WriteGuestPage(*parent, FirstDataGfn() + i, 0, kPattern, sizeof(kPattern))
                    .ok());
  }

  // Fault points the rollback rounds cycle through, each with an nth-hit
  // (counted from arming) that unwinds the batch from a different depth:
  // the first share of child 0, a frame allocation deep inside a later
  // child, child 0's page tables, and the creation of the fourth child.
  const std::vector<std::pair<std::string, std::uint64_t>> points = {
      {"clone/stage1/share", 1},
      {"hypervisor/frame_alloc", 700},
      {"clone/stage1/page_tables", 1},
      {"clone/stage1/create_domain", 4}};

  std::vector<DomId> live_children;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const unsigned batch = (round % 2 == 0) ? 8 : 3;

    auto children = sys.clone_engine().Clone({*parent, *parent, StartInfoMfn(sys, *parent), batch});
    ASSERT_TRUE(children.ok()) << children.status().ToString();
    sys.Settle();
    live_children.insert(live_children.end(), children->begin(), children->end());

    // COW faults in the two newest children, on the pages the parent stamped
    // (shared by the batch) and on a second page.
    for (std::size_t k = live_children.size() - 2; k < live_children.size(); ++k) {
      DomId c = live_children[k];
      std::uint8_t scratch = static_cast<std::uint8_t>(round);
      ASSERT_TRUE(
          sys.hypervisor().WriteGuestPage(c, FirstDataGfn(), 0, &scratch, sizeof(scratch)).ok());
      ASSERT_TRUE(sys.hypervisor()
                      .WriteGuestPage(c, FirstDataGfn() + 1, 0, &scratch, sizeof(scratch))
                      .ok());
    }
    // Memory-reset the newest child back to its post-clone state.
    auto restored = sys.clone_engine().CloneReset(kDom0, live_children.back());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(*restored, 2u);

    // Destroy two children (one dirty, one clean) to churn the pool.
    for (int d = 0; d < 2; ++d) {
      DomId victim = live_children.front();
      live_children.erase(live_children.begin());
      (void)sys.toolstack().DestroyDomain(victim);
      if (sys.hypervisor().FindDomain(victim) != nullptr) {
        (void)sys.hypervisor().DestroyDomain(victim);
      }
    }
    sys.Settle();

    // Every other round: force a mid-batch failure and check the rollback
    // unwinds the staged children completely.
    if (round % 2 == 1) {
      const auto& [point, nth] = points[static_cast<std::size_t>(round / 2) % points.size()];
      SCOPED_TRACE("rollback via " + point);
      const std::size_t doms_before = sys.hypervisor().DomainIds().size();
      const std::size_t free_before = sys.hypervisor().FreePoolFrames();
      const std::uint64_t rollbacks_before = sys.clone_engine().stats().rollbacks;
      ASSERT_TRUE(sys.fault_injector().Arm(point, FaultSpec::NthHit(nth)).ok());
      auto failed = sys.clone_engine().Clone({*parent, *parent, StartInfoMfn(sys, *parent), 6});
      sys.fault_injector().DisarmAll();
      sys.Settle();
      if (!failed.ok()) {
        EXPECT_EQ(sys.hypervisor().DomainIds().size(), doms_before);
        EXPECT_EQ(sys.hypervisor().FreePoolFrames(), free_before);
        EXPECT_EQ(sys.clone_engine().stats().rollbacks, rollbacks_before + 1);
        EXPECT_FALSE(sys.hypervisor().FindDomain(*parent)->IsPaused());
      } else {
        // The nth hit landed beyond this batch; the clones are real.
        sys.Settle();
        live_children.insert(live_children.end(), failed->begin(), failed->end());
      }
    }

    ExpectFrameConsistency(sys);
    ExpectParentPatternIntact(sys, *parent);
  }

  // Full teardown returns the frame pool to its boot state: no round leaked
  // or double-freed a frame.
  for (auto it = live_children.rbegin(); it != live_children.rend(); ++it) {
    (void)sys.toolstack().DestroyDomain(*it);
    if (sys.hypervisor().FindDomain(*it) != nullptr) {
      (void)sys.hypervisor().DestroyDomain(*it);
    }
  }
  (void)sys.toolstack().DestroyDomain(*parent);
  sys.Settle();
  ExpectFrameConsistency(sys);
  EXPECT_EQ(sys.hypervisor().FreePoolFrames(), initial_free);
}

// A clone family through repeated generations: clones of clones, every
// member cloning a batch of two. The family tree and frame table stay
// consistent throughout.
TEST_F(ConcurrencyStressTest, CloneOfCloneGenerationsStayConsistent) {
  NepheleSystem sys(StressSystem());
  auto root = sys.toolstack().CreateDomain(ParentConfig());
  ASSERT_TRUE(root.ok());
  sys.Settle();

  std::vector<DomId> generation = {*root};
  for (int gen = 0; gen < 3; ++gen) {
    SCOPED_TRACE("generation " + std::to_string(gen));
    std::vector<DomId> next;
    for (DomId dom : generation) {
      auto children = sys.clone_engine().Clone({dom, dom, StartInfoMfn(sys, dom), 2});
      ASSERT_TRUE(children.ok()) << children.status().ToString();
      sys.Settle();
      next.insert(next.end(), children->begin(), children->end());
    }
    for (DomId c : next) {
      EXPECT_TRUE(sys.hypervisor().IsDescendantOf(c, *root));
      EXPECT_EQ(sys.hypervisor().FindDomain(c)->family_root, *root);
    }
    ExpectFrameConsistency(sys);
    generation = next;
  }
  // 2 + 4 + 8 descendants of the root.
  EXPECT_EQ(sys.clone_engine().stats().clones, 14u);
}

}  // namespace
}  // namespace nephele
