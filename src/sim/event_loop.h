#pragma once
// Discrete-event simulation core.
//
// Every subsystem (links, TCP subflows, the DASH player's playback clock,
// the MP-DASH decision timer) schedules callbacks on one EventLoop. Events
// at equal timestamps fire in scheduling order, which keeps runs bitwise
// deterministic for a given seed.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "telemetry/telemetry.h"
#include "util/units.h"

namespace mpdash {

// Handle for a scheduled event: its record in the loop's slab and the
// serial the event drew there. Default-constructed ids are invalid and
// safe to cancel (no-op). Serials never repeat, so the id of a fired or
// cancelled event never names the record's next occupant.
struct EventId {
  std::uint32_t record = 0;
  std::uint64_t serial = 0;
  bool valid() const { return serial != 0; }
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

  // Moves a pending event to `at` (clamped to now()), keeping its id and
  // callback, for deadlines that move on every call such as a TCP
  // retransmission timeout re-armed per ack. Returns false and does
  // nothing when the event is not pending (it fired or was cancelled).
  //
  // It behaves exactly like cancel() + schedule_at(at, same callback): it
  // claims the next tie-break sequence number, and the event fires at that
  // (at, seq) key. It costs less: a later deadline leaves the event's heap
  // entry in place, and only an earlier one pushes a new entry.
  bool reschedule(EventId id, TimePoint at);

  // Runs events until the queue is empty.
  void run();
  // Runs events with timestamp <= deadline, then advances now() to deadline.
  void run_until(TimePoint deadline);

  bool has_pending() const { return pending_callbacks() > 0; }
  std::size_t executed_events() const { return executed_; }
  // Live (non-cancelled) scheduled callbacks awaiting execution: every
  // record not on the free list.
  std::size_t pending_callbacks() const { return slots_.size() - free_.size(); }
  // Heap entries including stale ones left behind by cancel() and
  // reschedule(); bounded by compaction, exposed for the regression tests.
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
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t record;
    // Ordering for min-heap via std::greater.
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // One event record. Free records sit on `free_` with seq 0.
  struct Slot {
    Callback cb;
    std::uint64_t serial = 0;
    // The key the last schedule or reschedule claimed; seq 0 = not pending.
    TimePoint at = kTimeZero;
    std::uint64_t seq = 0;
    // The key of the record's one live heap entry, at or before the
    // claimed key; seq 0 = none, exactly when not pending.
    TimePoint queued_at = kTimeZero;
    std::uint64_t queued_seq = 0;
  };

  bool is_pending(EventId id) const;
  // Claims the next seq for record `r` at `at`, pushing a heap entry only
  // when the record has none at or before `at`.
  void claim(std::uint32_t r, TimePoint at);
  // Returns record `r` to the free list and hands back its callback.
  Callback release(std::uint32_t r);
  // Pops and runs the next event; returns false if queue empty after
  // discarding cancelled entries.
  bool step();
  // Settles the entry at the top of the heap. Returns true when it is due
  // under the key its record last claimed; otherwise pops it (superseded
  // or cancelled) or re-queues it under that key, and returns false.
  bool due(const Entry& top);
  void begin_event(TimePoint at);
  // Drops every stale heap entry once stale entries dominate the heap
  // (cancel() and earlier reschedules leave them behind; without this a
  // schedule/cancel loop would grow the heap without bound).
  void compact_if_stale();
  void compact();

  TimePoint now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_serial_ = 1;
  std::uint64_t next_alloc_id_ = 1;
  std::size_t executed_ = 0;
  // A min-heap on (at, seq) whose vector compact() filters in place.
  struct Heap : std::priority_queue<Entry, std::vector<Entry>, std::greater<>> {
    using priority_queue::c;
  };
  Heap queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;

  Telemetry* telemetry_ = nullptr;
  Counter executed_counter_;

  std::function<void()> interrupt_;
  std::uint64_t interrupt_interval_ = 0;
  std::uint64_t interrupt_countdown_ = 0;
};

}  // namespace mpdash
