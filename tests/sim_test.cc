#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"
#include "src/sim/series.h"
#include "src/sim/time.h"

namespace nephele {
namespace {

TEST(SimTime, ConversionsRoundTrip) {
  SimDuration d = SimDuration::Millis(1.5);
  EXPECT_EQ(d.ns(), 1'500'000);
  EXPECT_DOUBLE_EQ(d.ToMillis(), 1.5);
  EXPECT_DOUBLE_EQ(SimDuration::Seconds(2).ToSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(SimDuration::Micros(3).ToMicros(), 3.0);
}

TEST(SimTime, Arithmetic) {
  SimTime t(1000);
  SimTime u = t + SimDuration::Nanos(500);
  EXPECT_EQ(u.ns(), 1500);
  EXPECT_EQ((u - t).ns(), 500);
  EXPECT_LT(t, u);
  SimDuration scaled = SimDuration::Micros(10) * 2.5;
  EXPECT_EQ(scaled.ns(), 25'000);
}

TEST(EventLoop, AdvanceByMovesClock) {
  EventLoop loop;
  EXPECT_EQ(loop.Now().ns(), 0);
  loop.AdvanceBy(SimDuration::Millis(5));
  EXPECT_DOUBLE_EQ(loop.Now().ToMillis(), 5.0);
}

TEST(EventLoop, PostedEventsRunInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Post(SimDuration::Millis(10), [&] { order.push_back(2); });
  loop.Post(SimDuration::Millis(5), [&] { order.push_back(1); });
  loop.Post(SimDuration::Millis(20), [&] { order.push_back(3); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.Now().ToMillis(), 20.0);
}

TEST(EventLoop, SameInstantIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.Post(SimDuration::Millis(1), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, EventsCanPostEvents) {
  EventLoop loop;
  int fired = 0;
  loop.Post(SimDuration::Millis(1), [&] {
    ++fired;
    loop.Post(SimDuration::Millis(1), [&] { ++fired; });
  });
  EXPECT_EQ(loop.Run(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.Post(SimDuration::Millis(5), [&] { ++fired; });
  loop.Post(SimDuration::Millis(50), [&] { ++fired; });
  loop.RunUntil(SimTime(SimDuration::Millis(10).ns()));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.Now().ToMillis(), 10.0);
  EXPECT_TRUE(loop.HasPendingEvents());
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.AdvanceBy(SimDuration::Millis(3));
  bool fired = false;
  loop.Post(SimDuration::Millis(-10), [&] { fired = true; });
  loop.Run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(loop.Now().ToMillis(), 3.0);
}

// Differential check of the loop against its contract: whatever mix of
// Post / PostAt (past times included) / AdvanceBy / RunUntil a test drives,
// and however events post further events, the events run in the order of a
// stable sort of all posts by effective time (posting order breaks ties),
// the clock follows a model of it (an event never moves it back), and
// RunUntil never runs past its deadline.
TEST(EventLoop, RandomInterleavingsRunInWhenSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventLoop loop;
    std::vector<std::int64_t> when_of;  // by id == posting order
    std::vector<int> ran;
    std::int64_t model_now = 0;
    std::int64_t deadline = std::numeric_limits<std::int64_t>::max();
    std::function<void()> post_one = [&] {
      int id = static_cast<int>(when_of.size());
      std::int64_t now = loop.Now().ns();
      auto body = [&, id] {
        model_now = std::max(model_now, when_of[id]);
        EXPECT_EQ(loop.Now().ns(), model_now);
        EXPECT_LE(loop.Now().ns(), deadline);
        ran.push_back(id);
        while (when_of.size() < 3000 && rng.NextBool(0.45)) {
          post_one();
        }
      };
      if (rng.NextBool(0.5)) {
        std::int64_t delay = rng.NextInRange(-20, 60);
        when_of.push_back(now + std::max<std::int64_t>(delay, 0));
        loop.Post(SimDuration(delay), body);
      } else {
        std::int64_t at = now + rng.NextInRange(-50, 60);
        when_of.push_back(std::max(at, now));
        loop.PostAt(SimTime(at), body);
      }
    };
    for (int step = 0; step < 300; ++step) {
      switch (rng.NextBelow(4)) {
        case 0:
        case 1:
          post_one();
          break;
        case 2: {
          std::int64_t d = rng.NextInRange(0, 30);
          model_now += d;
          loop.AdvanceBy(SimDuration(d));
          break;
        }
        default: {
          deadline = loop.Now().ns() + rng.NextInRange(0, 40);
          loop.RunUntil(SimTime(deadline));
          model_now = std::max(model_now, deadline);
          EXPECT_EQ(loop.Now().ns(), model_now);
          deadline = std::numeric_limits<std::int64_t>::max();
          break;
        }
      }
    }
    loop.Run();
    EXPECT_FALSE(loop.HasPendingEvents());

    std::vector<int> expected(when_of.size());
    std::iota(expected.begin(), expected.end(), 0);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](int a, int b) { return when_of[a] < when_of[b]; });
    EXPECT_EQ(ran, expected);
  }
}

TEST(EventLoop, MoveOnlyCaptureRunsExactlyOnce) {
  EventLoop loop;
  int runs = 0;
  auto owned = std::make_unique<int>(41);
  loop.Post(SimDuration::Micros(1), [&runs, p = std::move(owned)] { runs += *p - 40; });
  // Churn the slot vector so the pending callback is relocated.
  for (int i = 0; i < 100; ++i) {
    loop.Post(SimDuration::Micros(2), [] {});
  }
  EXPECT_EQ(loop.Run(), 101u);
  EXPECT_EQ(runs, 1);
}

TEST(EventLoop, CaptureLargerThanInlineBufferRunsExactlyOnce) {
  EventLoop loop;
  std::array<std::uint64_t, 16> big{};
  big.fill(3);
  static_assert(sizeof(big) > EventCallback::kInlineSize);
  std::uint64_t sum = 0;
  int runs = 0;
  loop.Post(SimDuration::Micros(1), [&sum, &runs, big] {
    ++runs;
    for (std::uint64_t v : big) {
      sum += v;
    }
  });
  for (int i = 0; i < 100; ++i) {
    loop.Post(SimDuration::Micros(2), [] {});
  }
  EXPECT_EQ(loop.Run(), 101u);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sum, 48u);
}

TEST(EventLoop, PendingCallbacksAreDestroyedWithTheLoop) {
  auto token = std::make_shared<int>(0);
  {
    EventLoop loop;
    loop.Post(SimDuration::Micros(1), [token] {});               // inline
    std::array<char, 128> pad{};
    loop.Post(SimDuration::Micros(2), [token, pad] { (void)pad; });  // boxed
    loop.Post(SimDuration::Micros(3), [t = std::make_unique<std::shared_ptr<int>>(token)] {});
    EXPECT_EQ(token.use_count(), 4);
    loop.RunUntil(SimTime(SimDuration::Micros(1).ns()));
    EXPECT_EQ(token.use_count(), 3);  // the run callback was destroyed after running
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, BoundsRespected) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBelow(17), 17u);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    std::int64_t v = r.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, GaussianIsRoughlyCentred) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    sum += r.NextGaussian(10.0, 2.0);
  }
  EXPECT_NEAR(sum / 10000.0, 10.0, 0.1);
}

TEST(Series, TableStoresRows) {
  SeriesTable t("test", {"x", "y"});
  t.AddRow({1, 2});
  t.AddRow({3, 4});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Column(1), (std::vector<double>{2, 4}));
}

TEST(Series, RunningStat) {
  RunningStat s;
  for (double x : {2.0, 4.0, 6.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-9);
}

TEST(CostModel, DefaultAnchorsSane) {
  const CostModel& c = DefaultCostModel();
  // Second-fork Fig. 6 anchor: 4096 MiB ~= 1 Mi pages -> ~65 ms + fixed.
  double fork2_ms =
      (c.proc_fork_fixed + SimDuration::Nanos(c.proc_fork_pte_copy.ns() * (1 << 20))).ToMillis();
  EXPECT_NEAR(fork2_ms, 65.2, 5.0);
  // Unikraft KFX reset anchor: ~125 us for 3 dirty pages.
  double reset_us = (c.clone_reset_fixed + c.clone_reset_per_page * 3.0).ToMicros();
  EXPECT_NEAR(reset_us, 125.0, 15.0);
}

}  // namespace
}  // namespace nephele
