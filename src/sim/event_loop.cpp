#include "sim/event_loop.h"

#include <cassert>
#include <utility>

namespace mpdash {

EventId EventLoop::schedule_at(TimePoint at, Callback cb) {
  if (at < now_) at = now_;
  const std::uint64_t id = next_id_++;
  queue_.push(Entry{at, next_seq_++, id});
  callbacks_.emplace(id, std::move(cb));
  return EventId{id};
}

EventId EventLoop::schedule_in(Duration delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

bool EventLoop::cancel(EventId id) {
  if (!id.valid()) return false;
  if (callbacks_.erase(id.value) == 0) return false;
  compact_if_stale();
  return true;
}

TimerId EventLoop::make_timer(Callback cb) {
  timers_.push_back(Timer{std::move(cb)});
  return TimerId{static_cast<std::uint32_t>(timers_.size() - 1)};
}

void EventLoop::arm_timer(TimerId t, TimePoint at) {
  if (at < now_) at = now_;
  Timer& timer = timers_[t.index];
  if (timer.seq == 0) ++armed_timers_;
  timer.at = at;
  timer.seq = next_seq_++;
  // A queued entry at or before the new deadline surfaces first and is
  // re-queued then (timer_due); only an earlier deadline needs a push now,
  // which leaves the old entry stale.
  const bool queued = timer.queued_seq != 0;
  if (queued && timer.queued_at <= at) return;
  queue_.push(Entry{at, timer.seq, kTimerTag | t.index});
  timer.queued_at = at;
  timer.queued_seq = timer.seq;
  if (queued) compact_if_stale();
}

void EventLoop::disarm_timer(TimerId t) {
  Timer& timer = timers_[t.index];
  if (timer.seq == 0) return;
  timer.seq = 0;
  timer.queued_seq = 0;  // its heap entry is stale now
  --armed_timers_;
  compact_if_stale();
}

bool EventLoop::timer_due(const Entry& top) {
  Timer& timer = timers_[top.id & ~kTimerTag];
  if (top.seq == timer.queued_seq && top.seq == timer.seq) return true;
  queue_.pop();
  if (top.seq == timer.queued_seq) {
    // Re-armed to a later key since this entry was pushed.
    queue_.push(Entry{timer.at, timer.seq, top.id});
    timer.queued_at = timer.at;
    timer.queued_seq = timer.seq;
  }
  return false;
}

void EventLoop::compact_if_stale() {
  // A schedule/cancel-heavy workload would otherwise accumulate stale heap
  // entries without bound; rebuild once they outnumber the live ones.
  const std::size_t live = callbacks_.size() + armed_timers_;
  const std::size_t stale = queue_.size() - live;
  if (stale > 64 && stale > live) compact();
}

void EventLoop::compact() {
  std::vector<Entry> live;
  live.reserve(callbacks_.size() + armed_timers_);
  while (!queue_.empty()) {
    const Entry& e = queue_.top();
    const bool keep = (e.id & kTimerTag)
                          ? e.seq == timers_[e.id & ~kTimerTag].queued_seq
                          : callbacks_.contains(e.id);
    if (keep) live.push_back(e);
    queue_.pop();
  }
  queue_ = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>(
      std::greater<>{}, std::move(live));
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
    if (top.id & kTimerTag) {
      if (!timer_due(top)) continue;
      queue_.pop();
      Timer& timer = timers_[top.id & ~kTimerTag];
      timer.seq = 0;
      timer.queued_seq = 0;
      --armed_timers_;
      begin_event(top.at);
      timer.cb();
      return true;
    }
    auto it = callbacks_.find(top.id);
    if (it == callbacks_.end()) {
      queue_.pop();  // cancelled
      continue;
    }
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    queue_.pop();
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
    if (top.id & kTimerTag) {
      if (!timer_due(top)) continue;
    } else if (!callbacks_.contains(top.id)) {
      queue_.pop();
      continue;
    }
    if (top.at > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

bool EventLoop::has_pending() const {
  // Stale heap entries don't count.
  return !callbacks_.empty() || armed_timers_ > 0;
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
