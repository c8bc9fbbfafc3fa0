#include "core/mpdash_socket.h"

#include <algorithm>
#include <limits>

namespace mpdash {

MpDashSocket::MpDashSocket(EventLoop& loop, MptcpConnection& conn,
                           MpDashSocketConfig config)
    : loop_(loop),
      conn_(conn),
      config_(config),
      scheduler_(*this, config.scheduler),
      mask_(kAllPathsMask) {}

MpDashSocket::~MpDashSocket() { stop_timer(); }

void MpDashSocket::enable(Bytes size, Duration window, SpanId span) {
  if (scheduler_.active()) scheduler_.end();
  conn_.client().set_sampling_active(true);
  scheduler_.begin(loop_.now(), size, window, span);
  stop_timer();
  timer_ = loop_.schedule_in(config_.check_interval, [this] { tick(); });
}

void MpDashSocket::disable() {
  scheduler_.end();
  stop_timer();
  conn_.client().set_sampling_active(false);
}

void MpDashSocket::tick() {
  timer_ = EventId{};
  scheduler_.update(loop_.now());
  if (!scheduler_.active()) {
    if (scheduler_.deadline_missed()) ++deadline_misses_;
    conn_.client().set_sampling_active(false);
    return;
  }
  timer_ = loop_.schedule_in(config_.check_interval, [this] { tick(); });
}

void MpDashSocket::stop_timer() {
  loop_.cancel(timer_);
  timer_ = EventId{};
}

DataRate MpDashSocket::aggregate_throughput() const {
  return conn_.client().aggregate_throughput_estimate();
}

std::vector<ControlledPath> MpDashSocket::paths() const {
  std::vector<ControlledPath> out;
  out.reserve(conn_.paths().size());
  for (const NetPath* p : conn_.paths()) {
    out.push_back({p->id(), p->description().unit_cost});
  }
  return out;
}

void MpDashSocket::set_path_enabled(int path_id, bool enabled) {
  const std::uint32_t bit = 1u << path_id;
  const std::uint32_t next = enabled ? (mask_ | bit) : (mask_ & ~bit);
  if (next == mask_) return;
  mask_ = next;
  conn_.client().signal_path_mask(mask_);
}

bool MpDashSocket::path_enabled(int path_id) const {
  return (mask_ >> path_id) & 1u;
}

Bytes MpDashSocket::transferred_bytes() const {
  return conn_.client().delivered_payload_total();
}

DataRate MpDashSocket::path_throughput(int path_id) const {
  return conn_.client().path_throughput_estimate(path_id);
}

}  // namespace mpdash
