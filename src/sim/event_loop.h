#pragma once
// Discrete-event simulation core.
//
// Every subsystem (links, TCP subflows, the DASH player's playback clock,
// the MP-DASH decision timer) schedules callbacks on one EventLoop. Events
// at equal timestamps fire in scheduling order, which keeps runs bitwise
// deterministic for a given seed.

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "telemetry/telemetry.h"
#include "util/units.h"

namespace mpdash {

// Handle for cancelling a scheduled event. Default-constructed ids are
// invalid and safe to cancel (no-op).
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
};

// Handle for a re-armable timer (see EventLoop::make_timer).
struct TimerId {
  std::uint32_t index = 0;
};

class EventLoop {
 public:
  using Callback = std::function<void()>;

  TimePoint now() const { return now_; }

  // Schedules `cb` to run at absolute time `at` (clamped to now()).
  EventId schedule_at(TimePoint at, Callback cb);
  // Schedules `cb` to run `delay` from now.
  EventId schedule_in(Duration delay, Callback cb);

  // Cancels a pending event. Cancelling an already-fired or invalid id is a
  // no-op. Returns true if the event was pending.
  bool cancel(EventId id);

  // Re-armable timer for deadlines that move on every call, such as a
  // TCP retransmission timeout re-armed per ack. Firing disarms it; `cb`
  // may re-arm. The timer lives as long as the loop: an owner that dies
  // first disarms it in its destructor.
  //
  // arm_timer(t, at) behaves exactly like cancel() + schedule_at(at, cb):
  // it claims the next tie-break sequence number, and the timer fires at
  // that (at, seq) key, so every event keeps the position the two calls
  // would give it. It costs less: the heap keeps one entry per timer,
  // pushed anew only when the deadline moves earlier than that entry's.
  // A later deadline leaves the entry in place; when it surfaces early
  // it is re-queued under the claimed key, which neither executes an
  // event nor polls the interrupt hook. disarm_timer(t) claims nothing,
  // like cancel().
  TimerId make_timer(Callback cb);
  void arm_timer(TimerId t, TimePoint at);
  void disarm_timer(TimerId t);

  // Runs events until the queue is empty.
  void run();
  // Runs events with timestamp <= deadline, then advances now() to deadline.
  void run_until(TimePoint deadline);

  // True if any event is pending or any timer armed.
  bool has_pending() const;
  std::size_t executed_events() const { return executed_; }
  // Live (non-cancelled) scheduled callbacks awaiting execution; armed
  // timers are not counted.
  std::size_t pending_callbacks() const { return callbacks_.size(); }
  // Heap entries including stale ones left behind by cancel() and by
  // timers; bounded by compaction, exposed for the regression tests.
  std::size_t queued_entries() const { return queue_.size(); }

  // Attaches telemetry (counter `sim.executed_events`). Pass nullptr to
  // detach. Never changes scheduling behavior.
  void set_telemetry(Telemetry* telemetry);

  // Installs a poll hook called once every `interval` executed events,
  // before the event runs. The hook may throw to abort run()/run_until()
  // — that is how RunWatchdog kills a livelocked simulation without the
  // loop itself knowing about budgets. The check never observes or
  // mutates scheduling state, so an armed-but-silent hook cannot change
  // what a run computes. One hook at a time; `interval` 0 means 1.
  void set_interrupt(std::function<void()> check, std::uint64_t interval);
  void clear_interrupt();

  // Allocates a simulation-unique id (packet ids, etc.). Keeping the
  // counter on the loop — not in a process-wide static — lets concurrent
  // simulations share nothing mutable, so parallel campaigns stay both
  // race-free and bitwise deterministic.
  std::uint64_t allocate_id() { return next_alloc_id_++; }

 private:
  // Timer entries carry kTimerTag | timer index in `id`; event ids never
  // reach that bit.
  static constexpr std::uint64_t kTimerTag = std::uint64_t{1} << 63;

  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint64_t id;
    // Ordering for min-heap via std::greater.
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  struct Timer {
    Callback cb;
    // The key the last arm claimed; seq 0 = disarmed.
    TimePoint at = kTimeZero;
    std::uint64_t seq = 0;
    // The key of the timer's one live heap entry, at or before the claimed
    // key; seq 0 = none, exactly when disarmed.
    TimePoint queued_at = kTimeZero;
    std::uint64_t queued_seq = 0;
  };

  // Pops and runs the next event; returns false if queue empty after
  // discarding cancelled entries.
  bool step();
  // Settles a timer entry at the top of the heap. Returns true when it is
  // due under the key its last arm claimed; otherwise pops it (superseded
  // or disarmed) or re-queues it under that key, and returns false.
  bool timer_due(const Entry& top);
  void begin_event(TimePoint at);
  // Drops every stale heap entry once stale entries dominate the heap
  // (cancel() and moving timers leave them behind; without this a
  // schedule/cancel loop would grow the heap without bound).
  void compact_if_stale();
  void compact();

  TimePoint now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_alloc_id_ = 1;
  std::size_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  // Callbacks keyed by id; erased on cancel so stale heap entries are
  // skipped cheaply.
  std::unordered_map<std::uint64_t, Callback> callbacks_;
  // A deque keeps a running timer's callback in place if it makes timers.
  std::deque<Timer> timers_;
  std::size_t armed_timers_ = 0;

  Telemetry* telemetry_ = nullptr;
  Counter executed_counter_;

  std::function<void()> interrupt_;
  std::uint64_t interrupt_interval_ = 0;
  std::uint64_t interrupt_countdown_ = 0;
};

}  // namespace mpdash
