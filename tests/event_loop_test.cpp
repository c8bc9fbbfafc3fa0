#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>
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

// A fired or cancelled event's record goes back to the slab; the next
// schedule takes it, and the old id names nothing from then on.
TEST(EventLoop, StaleIdsMissTheirRecordsNextOccupant) {
  EventLoop loop;
  std::vector<int> order;
  const EventId fired =
      loop.schedule_in(seconds(1.0), [&order] { order.push_back(1); });
  loop.run();
  const EventId second =
      loop.schedule_in(seconds(1.0), [&order] { order.push_back(2); });
  ASSERT_EQ(second.record, fired.record);
  EXPECT_FALSE(loop.cancel(fired));
  EXPECT_FALSE(loop.reschedule(fired, loop.now()));

  const EventId cancelled =
      loop.schedule_in(seconds(1.0), [&order] { order.push_back(3); });
  EXPECT_TRUE(loop.cancel(cancelled));
  const EventId third =
      loop.schedule_in(seconds(2.0), [&order] { order.push_back(4); });
  ASSERT_EQ(third.record, cancelled.record);
  EXPECT_FALSE(loop.cancel(cancelled));
  EXPECT_FALSE(loop.reschedule(cancelled, loop.now()));

  EXPECT_EQ(loop.pending_callbacks(), 2u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(loop.executed_events(), 3u);
}

// A running event is no longer pending: it cannot move itself, and a
// fresh schedule from inside its callback (which takes its record back)
// fires.
TEST(EventLoop, RunningEventCannotRescheduleItself) {
  EventLoop loop;
  EventId self;
  bool moved = true;
  int rescheduled_runs = 0;
  self = loop.schedule_at(seconds(1.0), [&] {
    moved = loop.reschedule(self, loop.now() + seconds(1.0));
    loop.schedule_at(loop.now() + seconds(1.0), [&] { ++rescheduled_runs; });
  });
  loop.run();
  EXPECT_FALSE(moved);
  EXPECT_EQ(rescheduled_runs, 1);
  EXPECT_EQ(loop.executed_events(), 2u);
  EXPECT_EQ(loop.now(), TimePoint(seconds(2.0)));
}

TEST(EventLoop, RescheduleMovesThePendingEvent) {
  EventLoop loop;
  std::vector<std::pair<char, std::int64_t>> fired;
  auto record = [&](char c) {
    return [&fired, &loop, c] { fired.emplace_back(c, loop.now().count()); };
  };
  // Earlier: fires ahead of an event it used to follow.
  loop.schedule_at(seconds(2.0), record('a'));
  const EventId b = loop.schedule_at(seconds(3.0), record('b'));
  EXPECT_TRUE(loop.reschedule(b, TimePoint(seconds(1.0))));
  // Same time: fires behind the events scheduled since.
  const EventId c = loop.schedule_at(seconds(4.0), record('c'));
  loop.schedule_at(seconds(4.0), record('d'));
  EXPECT_TRUE(loop.reschedule(c, TimePoint(seconds(4.0))));
  loop.run_until(TimePoint(seconds(3.0)));
  // The past clamps to now.
  const EventId e = loop.schedule_at(seconds(5.0), record('e'));
  EXPECT_TRUE(loop.reschedule(e, TimePoint(seconds(1.0))));
  loop.run();
  const std::int64_t s = seconds(1.0).count();
  EXPECT_EQ(fired, (std::vector<std::pair<char, std::int64_t>>{
                       {'b', 1 * s},
                       {'a', 2 * s},
                       {'e', 3 * s},
                       {'d', 4 * s},
                       {'c', 4 * s}}));
  EXPECT_EQ(loop.queued_entries(), 0u);
}

// reschedule() against the cancel() + schedule_at() pair it replaces.
// One random script drives both: timers (events re-armed in place) and
// one-shot events arm, disarm and schedule at colliding millisecond
// timestamps (zero delays and past deadlines included), from the top level
// between run_until() phases and from inside callbacks. The script draws
// from one seeded Rng as the events fire, so any divergence in order
// desynchronizes the rest.
struct TimerScript {
  static constexpr int kTimers = 4;

  EventLoop loop;
  bool moving;  // true: reschedule; false: cancel + schedule_at
  Rng rng;
  int budget = 300;  // actions left; callbacks go quiet once it runs out
  int next_event = 0;
  std::array<EventId, kTimers> ids{};
  std::vector<std::tuple<char, int, std::int64_t>> fired;
  std::uint64_t polls = 0;

  TimerScript(std::uint64_t seed, bool reschedule)
      : moving(reschedule), rng(seed) {
    loop.set_interrupt([this] { ++polls; }, 1);
  }

  TimePoint draw_time() {
    return loop.now() + milliseconds(rng.uniform_int(-1, 4));
  }

  void arm(int k, TimePoint at) {
    if (moving && loop.reschedule(ids[k], at)) return;
    if (!moving) loop.cancel(ids[k]);
    ids[k] = loop.schedule_at(at, [this, k] { on_timer(k); });
  }

  void disarm(int k) { loop.cancel(ids[k]); }

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
    TimerScript moved(seed, true);
    TimerScript reference(seed, false);
    moved.run();
    reference.run();
    ASSERT_EQ(moved.fired, reference.fired) << "seed " << seed;
    ASSERT_EQ(moved.loop.executed_events(), reference.loop.executed_events())
        << "seed " << seed;
    ASSERT_EQ(moved.polls, reference.polls) << "seed " << seed;
    ASSERT_EQ(moved.loop.now(), reference.loop.now()) << "seed " << seed;
    EXPECT_FALSE(moved.loop.has_pending());
  }
}

TEST(EventLoopTimer, ArmedTimerIsPending) {
  EventLoop loop;
  int fired = 0;
  EXPECT_FALSE(loop.has_pending());
  const EventId t =
      loop.schedule_at(TimePoint(seconds(1.0)), [&fired] { ++fired; });
  EXPECT_TRUE(loop.has_pending());
  EXPECT_EQ(loop.pending_callbacks(), 1u);
  EXPECT_TRUE(loop.cancel(t));
  EXPECT_FALSE(loop.has_pending());
  EXPECT_EQ(loop.pending_callbacks(), 0u);
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.executed_events(), 0u);

  // Moved later before its first deadline: the entry pushed for 1 s stays
  // and is re-queued when it surfaces, but only the 3 s deadline fires.
  const EventId u =
      loop.schedule_at(TimePoint(seconds(1.0)), [&fired] { ++fired; });
  EXPECT_TRUE(loop.reschedule(u, TimePoint(seconds(3.0))));
  EXPECT_EQ(loop.queued_entries(), 1u);
  loop.run_until(TimePoint(seconds(2.0)));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(loop.has_pending());
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(loop.has_pending());
  EXPECT_EQ(loop.executed_events(), 1u);
  EXPECT_EQ(loop.now(), TimePoint(seconds(3.0)));
}

// The rescheduling analogue of CancelChurnKeepsHeapBounded: deadlines that
// jump back and forth and interleaved cancels leave stale entries behind,
// and compaction keeps them bounded.
TEST(EventLoopTimer, RearmChurnKeepsHeapBounded) {
  EventLoop loop;
  Rng rng(7);
  int fired = 0;
  EventId t;
  std::size_t peak = 0;
  for (int i = 0; i < 10'000; ++i) {
    const TimePoint at = loop.now() + milliseconds(rng.uniform_int(1, 1000));
    if (!loop.reschedule(t, at)) {
      t = loop.schedule_at(at, [&fired] { ++fired; });
    }
    if (i % 3 == 1) loop.cancel(t);
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
