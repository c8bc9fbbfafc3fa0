#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "sim/event_loop.h"
#include "util/rng.h"

namespace mpdash {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(seconds(3.0), [&] { order.push_back(3); });
  loop.schedule_at(seconds(1.0), [&] { order.push_back(1); });
  loop.schedule_at(seconds(2.0), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), TimePoint(seconds(3.0)));
}

TEST(EventLoop, EqualTimesFifoBySchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule_in(seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // second cancel is a no-op
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelInvalidIdIsNoop) {
  EventLoop loop;
  EXPECT_FALSE(loop.cancel(EventId{}));
}

TEST(EventLoop, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(seconds(1.0), [&] { ++fired; });
  loop.schedule_at(seconds(5.0), [&] { ++fired; });
  loop.run_until(TimePoint(seconds(2.0)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), TimePoint(seconds(2.0)));
  EXPECT_TRUE(loop.has_pending());
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventsScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) loop.schedule_in(seconds(1.0), tick);
  };
  loop.schedule_in(seconds(1.0), tick);
  loop.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(loop.now(), TimePoint(seconds(10.0)));
}

TEST(EventLoop, PastDeadlinesClampToNow) {
  EventLoop loop;
  loop.schedule_at(seconds(2.0), [] {});
  loop.run();
  TimePoint fired_at = kTimeZero;
  loop.schedule_at(seconds(1.0), [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, TimePoint(seconds(2.0)));  // not in the past
}

TEST(EventLoop, CancelSelfWhileRunningOtherEvent) {
  EventLoop loop;
  bool second_ran = false;
  EventId second;
  loop.schedule_at(seconds(1.0), [&] { loop.cancel(second); });
  second = loop.schedule_at(seconds(1.0), [&] { second_ran = true; });
  loop.run();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoop, CountsExecutedEvents) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule_in(seconds(1.0), [] {});
  loop.run();
  EXPECT_EQ(loop.executed_events(), 7u);
}

// Regression: schedule 10k events, cancel half, run, then re-run a second
// batch on the same loop. Cancelled events must neither fire nor leak
// callbacks, and executed_events() must count exactly the survivors.
TEST(EventLoop, ScheduleCancelRerunTenThousandEvents) {
  constexpr int kEvents = 10'000;
  EventLoop loop;
  int fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(
        loop.schedule_in(milliseconds(i % 97), [&fired] { ++fired; }));
  }
  for (int i = 0; i < kEvents; i += 2) EXPECT_TRUE(loop.cancel(ids[i]));
  EXPECT_EQ(loop.pending_callbacks(), static_cast<std::size_t>(kEvents / 2));
  loop.run();
  EXPECT_EQ(fired, kEvents / 2);
  EXPECT_EQ(loop.executed_events(), static_cast<std::size_t>(kEvents / 2));
  EXPECT_EQ(loop.pending_callbacks(), 0u);  // nothing leaked
  EXPECT_EQ(loop.queued_entries(), 0u);     // heap fully drained

  // Second batch on the same loop: counters keep accumulating, cancelled
  // ids from the first batch stay dead.
  for (int i = 0; i < kEvents; i += 2) EXPECT_FALSE(loop.cancel(ids[i]));
  for (int i = 0; i < kEvents; ++i) {
    loop.schedule_in(milliseconds(i % 31), [&fired] { ++fired; });
  }
  loop.run();
  EXPECT_EQ(fired, kEvents / 2 + kEvents);
  EXPECT_EQ(loop.executed_events(),
            static_cast<std::size_t>(kEvents / 2 + kEvents));
  EXPECT_EQ(loop.pending_callbacks(), 0u);
}

// Regression: an RTO-style schedule/cancel churn loop must not grow the
// heap without bound — compact() rebuilds it once stale entries dominate.
TEST(EventLoop, CancelChurnKeepsHeapBounded) {
  EventLoop loop;
  std::size_t peak = 0;
  for (int i = 0; i < 10'000; ++i) {
    const EventId id = loop.schedule_in(seconds(1.0), [] {});
    EXPECT_TRUE(loop.cancel(id));
    peak = std::max(peak, loop.queued_entries());
  }
  // Compaction triggers once cancelled entries outnumber live ones (with a
  // small hysteresis floor), so the heap never holds more than ~the floor.
  EXPECT_LT(peak, 200u);
  EXPECT_EQ(loop.pending_callbacks(), 0u);
  loop.run();
  EXPECT_EQ(loop.executed_events(), 0u);
}

// Re-armable timers against the cancel() + schedule_at() pair they
// replace. One random script drives both: timers and one-shot events arm,
// disarm and schedule at colliding millisecond timestamps (zero delays
// and past deadlines included), from the top level between run_until()
// phases and from inside callbacks. The script draws from one seeded Rng
// as the events fire, so any divergence in order desynchronizes the rest.
struct TimerScript {
  static constexpr int kTimers = 4;

  EventLoop loop;
  bool lazy;  // true: arm_timer/disarm_timer; false: cancel + schedule_at
  Rng rng;
  int budget = 300;  // actions left; callbacks go quiet once it runs out
  int next_event = 0;
  std::array<TimerId, kTimers> timers{};
  std::array<EventId, kTimers> ids{};
  std::vector<std::tuple<char, int, std::int64_t>> fired;
  std::uint64_t polls = 0;

  TimerScript(std::uint64_t seed, bool lazy_timers)
      : lazy(lazy_timers), rng(seed) {
    for (int k = 0; k < kTimers; ++k) {
      if (lazy) timers[k] = loop.make_timer([this, k] { on_timer(k); });
    }
    loop.set_interrupt([this] { ++polls; }, 1);
  }

  TimePoint draw_time() {
    return loop.now() + milliseconds(rng.uniform_int(-1, 4));
  }

  void arm(int k, TimePoint at) {
    if (lazy) {
      loop.arm_timer(timers[k], at);
      return;
    }
    loop.cancel(ids[k]);
    ids[k] = loop.schedule_at(at, [this, k] {
      ids[k] = EventId{};
      on_timer(k);
    });
  }

  void disarm(int k) {
    if (lazy) {
      loop.disarm_timer(timers[k]);
      return;
    }
    loop.cancel(ids[k]);
    ids[k] = EventId{};
  }

  void schedule_event() {
    const int j = next_event++;
    loop.schedule_at(draw_time(), [this, j] { on_event(j); });
  }

  // One random action: arm (most often), disarm, or a one-shot event.
  void act() {
    if (budget <= 0) return;
    --budget;
    const int k = static_cast<int>(rng.uniform_int(0, kTimers - 1));
    const std::int64_t what = rng.uniform_int(0, 9);
    if (what < 6) {
      arm(k, draw_time());
    } else if (what < 8) {
      disarm(k);
    } else {
      schedule_event();
    }
  }

  void on_timer(int k) {
    fired.emplace_back('T', k, loop.now().count());
    const std::int64_t n = rng.uniform_int(0, 2);
    for (std::int64_t i = 0; i < n; ++i) act();
  }

  void on_event(int j) {
    fired.emplace_back('E', j, loop.now().count());
    const std::int64_t n = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < n; ++i) act();
  }

  void run() {
    for (int i = 0; i < 8; ++i) act();
    while (budget > 0) {
      for (std::int64_t i = rng.uniform_int(0, 4); i > 0; --i) act();
      loop.run_until(loop.now() + milliseconds(rng.uniform_int(0, 3)));
    }
    loop.run();
  }
};

TEST(EventLoopTimer, MatchesCancelAndReschedule) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TimerScript lazy(seed, true);
    TimerScript reference(seed, false);
    lazy.run();
    reference.run();
    ASSERT_EQ(lazy.fired, reference.fired) << "seed " << seed;
    ASSERT_EQ(lazy.loop.executed_events(), reference.loop.executed_events())
        << "seed " << seed;
    ASSERT_EQ(lazy.polls, reference.polls) << "seed " << seed;
    ASSERT_EQ(lazy.loop.now(), reference.loop.now()) << "seed " << seed;
    EXPECT_FALSE(lazy.loop.has_pending());
  }
}

TEST(EventLoopTimer, ArmedTimerIsPending) {
  EventLoop loop;
  int fired = 0;
  const TimerId t = loop.make_timer([&fired] { ++fired; });
  EXPECT_FALSE(loop.has_pending());
  loop.arm_timer(t, TimePoint(seconds(1.0)));
  EXPECT_TRUE(loop.has_pending());
  EXPECT_EQ(loop.pending_callbacks(), 0u);
  loop.disarm_timer(t);
  EXPECT_FALSE(loop.has_pending());
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.executed_events(), 0u);

  // Re-armed later before its first deadline: the stale entry surfaces at
  // 1 s and is re-queued, but only the 3 s deadline fires.
  loop.arm_timer(t, TimePoint(seconds(1.0)));
  loop.arm_timer(t, TimePoint(seconds(3.0)));
  loop.run_until(TimePoint(seconds(2.0)));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(loop.has_pending());
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(loop.has_pending());
  EXPECT_EQ(loop.executed_events(), 1u);
  EXPECT_EQ(loop.now(), TimePoint(seconds(3.0)));
}

// The timer analogue of CancelChurnKeepsHeapBounded: deadlines that jump
// back and forth and interleaved disarms leave stale entries behind, and
// compaction keeps them bounded.
TEST(EventLoopTimer, RearmChurnKeepsHeapBounded) {
  EventLoop loop;
  Rng rng(7);
  int fired = 0;
  const TimerId t = loop.make_timer([&fired] { ++fired; });
  std::size_t peak = 0;
  for (int i = 0; i < 10'000; ++i) {
    loop.arm_timer(t, loop.now() + milliseconds(rng.uniform_int(1, 1000)));
    if (i % 3 == 1) loop.disarm_timer(t);
    peak = std::max(peak, loop.queued_entries());
  }
  EXPECT_LT(peak, 200u);
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.executed_events(), 1u);
  EXPECT_EQ(loop.queued_entries(), 0u);
}

}  // namespace
}  // namespace mpdash
