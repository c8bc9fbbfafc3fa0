#include "sim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mpdash {

EventId EventLoop::schedule_at(TimePoint at, Callback cb) {
  if (at < now_) at = now_;
  std::uint32_t r;
  if (free_.empty()) {
    r = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    r = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[r];
  slot.cb = std::move(cb);
  slot.serial = next_serial_++;
  claim(r, at);
  return EventId{r, slot.serial};
}

EventId EventLoop::schedule_in(Duration delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

bool EventLoop::is_pending(EventId id) const {
  // Serials start at 1, so an invalid id names no record's occupant.
  return id.record < slots_.size() && slots_[id.record].serial == id.serial &&
         slots_[id.record].seq != 0;
}

bool EventLoop::cancel(EventId id) {
  if (!is_pending(id)) return false;
  release(id.record);  // the callback dies here, with the record free
  compact_if_stale();
  return true;
}

bool EventLoop::reschedule(EventId id, TimePoint at) {
  if (!is_pending(id)) return false;
  claim(id.record, at < now_ ? now_ : at);
  return true;
}

void EventLoop::claim(std::uint32_t r, TimePoint at) {
  Slot& slot = slots_[r];
  slot.at = at;
  slot.seq = next_seq_++;
  // A queued entry at or before the new deadline surfaces first and is
  // re-queued then (due); only an earlier deadline needs a push now,
  // which leaves the old entry stale.
  const bool queued = slot.queued_seq != 0;
  if (queued && slot.queued_at <= at) return;
  queue_.push(Entry{at, slot.seq, r});
  slot.queued_at = at;
  slot.queued_seq = slot.seq;
  if (queued) compact_if_stale();
}

EventLoop::Callback EventLoop::release(std::uint32_t r) {
  Slot& slot = slots_[r];
  Callback cb = std::move(slot.cb);
  slot.seq = 0;
  slot.queued_seq = 0;  // its heap entry is stale now
  free_.push_back(r);
  return cb;
}

bool EventLoop::due(const Entry& top) {
  Slot& slot = slots_[top.record];
  if (top.seq == slot.queued_seq && top.seq == slot.seq) return true;
  queue_.pop();
  if (top.seq == slot.queued_seq) {
    // Moved to a later key since this entry was pushed.
    queue_.push(Entry{slot.at, slot.seq, top.record});
    slot.queued_at = slot.at;
    slot.queued_seq = slot.seq;
  }
  return false;
}

void EventLoop::compact_if_stale() {
  // A schedule/cancel-heavy workload would otherwise accumulate stale heap
  // entries without bound; rebuild once they outnumber the live ones.
  const std::size_t pending = pending_callbacks();
  const std::size_t stale = queue_.size() - pending;
  if (stale > 64 && stale > pending) compact();
}

void EventLoop::compact() {
  // Keys (at, seq) are unique, so the rebuilt heap's layout never decides
  // firing order, and the vector keeps the capacity it grew.
  std::erase_if(queue_.c, [this](const Entry& e) {
    return e.seq != slots_[e.record].queued_seq;
  });
  std::make_heap(queue_.c.begin(), queue_.c.end(), std::greater<>{});
}

void EventLoop::begin_event(TimePoint at) {
  assert(at >= now_);
  now_ = at;
  ++executed_;
  if (telemetry_) executed_counter_.increment();
}

bool EventLoop::step() {
  // Interrupt poll runs before the queue is touched, so a throwing hook
  // aborts the run with the next event still scheduled (nothing is lost
  // half-executed).
  if (interrupt_ && --interrupt_countdown_ == 0) {
    interrupt_countdown_ = interrupt_interval_;
    interrupt_();
  }
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    if (!due(top)) continue;
    queue_.pop();
    // The record is free before the callback runs: the callback may
    // schedule into the slab, take this record back, or grow the slab.
    Callback cb = release(top.record);
    begin_event(top.at);
    cb();
    return true;
  }
  return false;
}

void EventLoop::run() {
  while (step()) {
  }
}

void EventLoop::run_until(TimePoint deadline) {
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    if (!due(top)) continue;
    if (top.at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void EventLoop::set_interrupt(std::function<void()> check,
                              std::uint64_t interval) {
  interrupt_ = std::move(check);
  interrupt_interval_ = interval > 0 ? interval : 1;
  interrupt_countdown_ = interrupt_interval_;
}

void EventLoop::clear_interrupt() {
  interrupt_ = nullptr;
  interrupt_interval_ = 0;
  interrupt_countdown_ = 0;
}

void EventLoop::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_) {
    executed_counter_ = telemetry_->metrics().counter("sim.executed_events");
  } else {
    executed_counter_ = Counter{};
  }
}

}  // namespace mpdash
