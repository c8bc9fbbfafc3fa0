// Heap-allocation gate for the event core. It replaces the global
// operator new to count allocations, so it is an executable of its own:
// every other test binary keeps the library's allocator.
//
// After a warm-up, scheduling and firing a small callback, moving a
// pending event and cancelling one must not touch the heap: the event's
// record, the free list and the heap's vector all reuse their storage.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "sim/event_loop.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mpdash {
namespace {

// A self-rescheduling `[this]` callback: the shape of every periodic
// owner (a link's next transmission, Algorithm 1's decision tick).
class Ticker {
 public:
  explicit Ticker(EventLoop& loop) : loop_(loop) {}

  // Fires `cycles` more ticks, one millisecond apart.
  void run(int cycles) {
    left_ = cycles;
    loop_.schedule_in(milliseconds(1), [this] { tick(); });
    loop_.run();
  }
  int fired() const { return fired_; }

 private:
  void tick() {
    ++fired_;
    if (--left_ > 0) loop_.schedule_in(milliseconds(1), [this] { tick(); });
  }

  EventLoop& loop_;
  int left_ = 0;
  int fired_ = 0;
};

TEST(EventLoopAlloc, ScheduleAndFireAllocatesNothing) {
  EventLoop loop;
  Ticker ticker(loop);
  ticker.run(1'000);
  const std::size_t before = g_allocations;
  ticker.run(100'000);
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(ticker.fired(), 101'000);
  EXPECT_EQ(loop.executed_events(), 101'000u);
}

// The RTO's shape: every ack moves one pending deadline later while the
// clock advances, and the event's first heap entry surfaces early and is
// re-queued under the claimed key.
TEST(EventLoopAlloc, RescheduleAllocatesNothing) {
  EventLoop loop;
  int fired = 0;
  const EventId rto =
      loop.schedule_in(milliseconds(200), [&fired] { ++fired; });
  auto ack = [&loop, rto] {
    const bool moved = loop.reschedule(rto, loop.now() + milliseconds(200));
    loop.run_until(loop.now() + microseconds(10));
    return moved;
  };
  for (int i = 0; i < 1'000; ++i) ack();
  const std::size_t before = g_allocations;
  int moved = 0;
  for (int i = 0; i < 100'000; ++i) moved += ack();
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(moved, 100'000);
  EXPECT_EQ(fired, 0);
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.executed_events(), 1u);
}

// A schedule/cancel loop leaves a stale heap entry per pair. Compaction
// drops them in the heap's own vector, which keeps the capacity it grew,
// so the pushes after it allocate nothing either.
TEST(EventLoopAlloc, ScheduleThenCancelChurnAllocatesNothing) {
  EventLoop loop;
  auto churn = [&loop](int pairs) {
    for (int i = 0; i < pairs; ++i) {
      loop.cancel(loop.schedule_in(milliseconds(5), [] {}));
    }
  };
  churn(1'000);
  const std::size_t before = g_allocations;
  churn(10'000);
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_LE(loop.queued_entries(), 129u);
  EXPECT_FALSE(loop.has_pending());
}

}  // namespace
}  // namespace mpdash
