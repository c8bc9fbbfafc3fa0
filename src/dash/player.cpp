#include "dash/player.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mpdash {

DashPlayer::DashPlayer(EventLoop& loop, HttpClient& client,
                       RateAdaptation& adaptation, PlayerConfig config,
                       StreamingHooks* hooks)
    : loop_(loop),
      client_(client),
      adaptation_(adaptation),
      config_(config),
      hooks_(hooks) {}

DashPlayer::~DashPlayer() {
  loop_.cancel(fetch_timer_);
  loop_.cancel(depletion_timer_);
  loop_.cancel(sample_timer_);
}

void DashPlayer::start() {
  activate_span(&manifest_span_);
  open_span_record(manifest_span_, "manifest", -1, -1, 0, 0.0);
  client_.get(manifest_url(),
              [this](const HttpTransfer& t) { on_manifest(t); });
}

void DashPlayer::on_manifest(const HttpTransfer& transfer) {
  if (!transfer.ok()) {
    // Transport-level failure (timeout budget spent, stream poisoned).
    // Retry the manifest itself; without it there is nothing to play.
    if (++manifest_attempt_ < config_.max_chunk_attempts) {
      client_.get(manifest_url(),
                  [this](const HttpTransfer& t) { on_manifest(t); });
      return;
    }
    close_span(&manifest_span_, "failed", -1, -1, 0);
    manifest_failed_ = true;
    done_ = true;
    log(PlayerEventType::kPlaybackDone);
    if (on_done_) on_done_();
    return;
  }
  if (transfer.response.status != 200) {
    throw std::runtime_error("manifest fetch failed");
  }
  close_span(&manifest_span_, "delivered", -1, -1, transfer.body_bytes);
  video_ = video_from_manifest(transfer.body);
  buffer_.emplace(config_.buffer_capacity);
  sample_timer_ = loop_.schedule_in(config_.buffer_sample_interval,
                                    [this] { sample_buffer(); });
  fetch_next_chunk();
}

AdaptationView DashPlayer::make_view() const {
  AdaptationView v;
  v.now = loop_.now();
  v.buffer_level_s = to_seconds(buffer_->level(loop_.now()));
  v.buffer_capacity_s = to_seconds(buffer_->capacity());
  v.chunk_duration_s = to_seconds(video_->chunk_duration());
  // With prefetch the newest in-flight chunk is the adaptation's
  // reference level (it is the most recent decision); sequentially the
  // deque is empty whenever a view is built, so this is last_level_.
  v.last_level = inflight_.empty() ? last_level_ : inflight_.back().level;
  v.inflight_ahead = static_cast<int>(inflight_.size());
  v.next_chunk = next_chunk_;
  v.total_chunks = video_->chunk_count();
  v.in_startup = !playing_started_;
  v.bitrates.reserve(static_cast<std::size_t>(video_->level_count()));
  for (const auto& lv : video_->levels()) v.bitrates.push_back(lv.avg_bitrate);
  if (next_chunk_ < video_->chunk_count()) {
    for (int l = 0; l < video_->level_count(); ++l) {
      v.next_chunk_sizes.push_back(video_->chunk_size(l, next_chunk_));
    }
  }
  v.last_chunk_throughput = last_chunk_throughput_;
  if (hooks_) v.override_throughput = hooks_->throughput_override(v);
  return v;
}

void DashPlayer::schedule_fetch(int lookahead) {
  // Wait until the buffer has room for `lookahead` more chunks (every
  // in-flight one plus the next issue).
  const Duration level = buffer_->level(loop_.now());
  const Duration room_at =
      level + lookahead * video_->chunk_duration() - buffer_->capacity();
  loop_.cancel(fetch_timer_);
  fetch_timer_ = loop_.schedule_in(std::max(room_at, kDurationZero) +
                                       microseconds(1),
                                   [this] { fetch_next_chunk(); });
}

void DashPlayer::fetch_next_chunk() {
  fetch_timer_ = EventId{};
  if (done_ || all_fetched_) return;
  // Issue as many requests as the lookahead window and guards allow.
  // Every decline path below has a wake-up: buffer-room waits arm the
  // fetch timer, and the prefetch guards are re-evaluated at each chunk
  // completion (which calls back into this function).
  while (!done_) {
    if (next_chunk_ >= video_->chunk_count()) {
      all_fetched_ = true;
      return;
    }
    const int n = static_cast<int>(inflight_.size());
    if (n >= std::max(1, config_.max_inflight_chunks)) return;
    if (n > 0) {
      // Prefetch guards: while stalled, every byte should serve the
      // chunk the stall is waiting on; and once the oldest in-flight
      // chunk is past its deadline, adding competition for bandwidth
      // only deepens the miss.
      if (stalled_) return;
      if (loop_.now() > inflight_.front().abs_deadline) return;
    }
    if (!buffer_->has_room(loop_.now(), (n + 1) * video_->chunk_duration())) {
      schedule_fetch(n + 1);
      return;
    }
    issue_chunk();
  }
}

void DashPlayer::issue_chunk() {
  InflightChunk e;
  e.chunk = next_chunk_;

  // Open the span before level selection so the kQualitySwitch,
  // kChunkRequest, and Algorithm-1 "begin" records it triggers are all
  // stamped with this chunk's id.
  if (telemetry_ && telemetry_->tracing()) {
    e.span = telemetry_->open_span();
    e.span_opened = loop_.now();
    telemetry_->push_span(e.span);
  }

  AdaptationView view = make_view();
  int level = adaptation_.select_level(view);
  level = std::clamp(level, 0, video_->highest_level());

  const int prev_level = view.last_level;
  if (prev_level >= 0 && level != prev_level) {
    ++switches_;
    log(PlayerEventType::kQualitySwitch, level, e.chunk, 0,
        static_cast<double>(prev_level), e.span);
  }

  const Bytes size = video_->chunk_size(level, e.chunk);
  if (hooks_) {
    e.deadline = hooks_->on_chunk_request(view, level, size, e.chunk, e.span);
  }
  e.requested = loop_.now();
  e.level = level;
  e.buffer_at_request_s = to_seconds(buffer_->level(loop_.now()));
  if (e.deadline) e.abs_deadline = loop_.now() + *e.deadline;

  log(PlayerEventType::kChunkRequest, level, e.chunk, size,
      e.deadline ? to_seconds(*e.deadline) : 0.0, e.span);
  open_span_record(e.span, "chunk", level, e.chunk, size,
                   e.deadline ? to_seconds(*e.deadline) : 0.0);

  const int chunk = e.chunk;
  const SpanId span = e.span;
  inflight_.push_back(std::move(e));
  ++next_chunk_;
  client_.get(
      chunk_url(level, chunk),
      [this, chunk](const HttpTransfer& t) { on_chunk_done(chunk, t); },
      nullptr, span);
}

DashPlayer::InflightIter DashPlayer::find_inflight(int chunk) {
  return std::find_if(
      inflight_.begin(), inflight_.end(),
      [chunk](const InflightChunk& e) { return e.chunk == chunk; });
}

void DashPlayer::on_chunk_done(int chunk, const HttpTransfer& transfer) {
  InflightIter it = find_inflight(chunk);
  assert(it != inflight_.end());
  if (it == inflight_.end()) return;
  if (!transfer.ok()) {
    on_chunk_failed(it);
    return;
  }
  if (transfer.response.status != 200) {
    throw std::runtime_error("chunk fetch failed");
  }
  const TimePoint now = loop_.now();
  const InflightChunk e = *it;

  ChunkRecord rec;
  rec.chunk = e.chunk;
  rec.level = e.level;
  rec.span = e.span;
  rec.bytes = transfer.body_bytes;
  rec.requested = e.requested;
  rec.completed = now;
  rec.deadline = e.deadline;
  rec.buffer_at_request_s = e.buffer_at_request_s;
  chunk_log_.push_back(rec);

  last_chunk_throughput_ = rate_of(transfer.body_bytes, now - e.requested);
  adaptation_.on_chunk_downloaded(e.level, transfer.body_bytes,
                                  now - e.requested);

  buffer_->add(now, video_->chunk_duration());
  log(PlayerEventType::kChunkComplete, e.level, e.chunk, transfer.body_bytes,
      0.0, e.span);
  last_level_ = e.level;
  inflight_.erase(it);

  if (hooks_) hooks_->on_chunk_complete(make_view(), e.chunk);

  maybe_start_playback();
  // End-of-stream: nothing will ever refill the buffer again, so resume
  // with whatever is buffered rather than waiting for a threshold no
  // future delivery can reach (mirrors maybe_start_playback).
  if (stalled_ &&
      (no_more_chunks() ||
       buffer_->level(now) >= std::min(config_.startup_buffer,
                                       buffer_->capacity() / 2))) {
    stalled_ = false;
    buffer_->set_playing(now, true);
    total_stall_ += now - stall_started_;
    // The stall ended because this chunk landed; keep the record inside
    // its span.
    log(PlayerEventType::kStallEnd, -1, -1, 0,
        to_seconds(now - stall_started_), e.span);
  }
  arm_depletion_watch();
  emit_span_end(e.span, e.span_opened, "delivered", e.level, e.chunk,
                transfer.body_bytes);
  fetch_next_chunk();
}

void DashPlayer::on_chunk_failed(InflightIter it) {
  InflightChunk& e = *it;
  ++e.attempt;
  if (e.attempt >= config_.max_chunk_attempts) {
    abandon_chunk(it);
    return;
  }
  // Downshift-and-retry: a lower level is fewer bytes, which is the best
  // bet on whatever is left of the network.
  const int level = std::max(0, e.level - 1);
  ++chunk_retries_;
  log(PlayerEventType::kChunkRetry, level, e.chunk, 0,
      static_cast<double>(e.attempt), e.span);
  e.level = level;
  e.requested = loop_.now();
  e.buffer_at_request_s = to_seconds(buffer_->level(loop_.now()));
  const int chunk = e.chunk;
  client_.get(
      chunk_url(level, chunk),
      [this, chunk](const HttpTransfer& t) { on_chunk_done(chunk, t); },
      nullptr, e.span);
}

void DashPlayer::abandon_chunk(InflightIter it) {
  // The paper's graceful-degradation endpoint: give up on this chunk so
  // the session as a whole survives. Playback will skip the gap.
  const InflightChunk e = *it;
  ++chunks_abandoned_;
  log(PlayerEventType::kChunkAbandoned, e.level, e.chunk, 0, 0.0, e.span);
  emit_span_end(e.span, e.span_opened, "abandoned", e.level, e.chunk, 0);
  inflight_.erase(it);
  if (hooks_) hooks_->on_chunk_complete(make_view(), e.chunk);
  if (no_more_chunks() && stalled_) {
    // The chunk this stall was waiting for (and everything after it) is
    // gone; nothing will ever refill the buffer. Close the stall and end
    // the session instead of hanging.
    const TimePoint now = loop_.now();
    stalled_ = false;
    total_stall_ += now - stall_started_;
    log(PlayerEventType::kStallEnd, -1, -1, 0,
        to_seconds(now - stall_started_));
    finish();
    return;
  }
  maybe_start_playback();
  arm_depletion_watch();
  fetch_next_chunk();
}

void DashPlayer::maybe_start_playback() {
  if (playing_started_) return;
  const TimePoint now = loop_.now();
  const bool enough =
      buffer_->level(now) >= config_.startup_buffer || no_more_chunks();
  if (!enough) return;
  playing_started_ = true;
  buffer_->set_playing(now, true);
  log(PlayerEventType::kPlaybackStart);
  arm_depletion_watch();
}

void DashPlayer::arm_depletion_watch() {
  loop_.cancel(depletion_timer_);
  depletion_timer_ = EventId{};
  if (!playing_started_ || stalled_ || done_) return;
  const TimePoint at = buffer_->depletion_time(loop_.now());
  if (at == TimePoint::max()) return;
  depletion_timer_ = loop_.schedule_at(at, [this] { on_depleted(); });
}

void DashPlayer::on_depleted() {
  depletion_timer_ = EventId{};
  const TimePoint now = loop_.now();
  if (buffer_->level(now) > milliseconds(1)) {
    arm_depletion_watch();  // chunk arrived between scheduling and firing
    return;
  }
  if (no_more_chunks()) {
    finish();
    return;
  }
  // Mid-stream empty buffer: a stall. Attributed to the oldest in-flight
  // chunk — the one playback is waiting on.
  stalled_ = true;
  stall_started_ = now;
  ++stall_count_;
  buffer_->set_playing(now, false);
  log(PlayerEventType::kStallStart, -1, -1, 0, 0.0,
      inflight_.empty() ? 0 : inflight_.front().span);
}

void DashPlayer::sample_buffer() {
  sample_timer_ = EventId{};
  if (done_) return;
  log(PlayerEventType::kBufferSample, -1, -1, 0,
      to_seconds(buffer_->level(loop_.now())));
  sample_timer_ = loop_.schedule_in(config_.buffer_sample_interval,
                                    [this] { sample_buffer(); });
}

void DashPlayer::finish() {
  if (done_) return;
  done_ = true;
  if (buffer_) buffer_->set_playing(loop_.now(), false);
  log(PlayerEventType::kPlaybackDone);
  loop_.cancel(fetch_timer_);
  loop_.cancel(depletion_timer_);
  loop_.cancel(sample_timer_);
  if (on_done_) on_done_();
}

void DashPlayer::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (!telemetry_) {
    buffer_gauge_ = Gauge{};
    level_gauge_ = Gauge{};
    stalls_counter_ = Counter{};
    switches_counter_ = Counter{};
    chunks_counter_ = Counter{};
    retries_counter_ = Counter{};
    abandoned_counter_ = Counter{};
    return;
  }
  MetricsRegistry& m = telemetry_->metrics();
  buffer_gauge_ = m.gauge("player.buffer_s");
  level_gauge_ = m.gauge("player.level");
  stalls_counter_ = m.counter("player.stalls");
  switches_counter_ = m.counter("player.switches");
  chunks_counter_ = m.counter("player.chunks");
  retries_counter_ = m.counter("player.chunk_retries");
  abandoned_counter_ = m.counter("player.chunks_abandoned");
}

void DashPlayer::activate_span(std::uint64_t* slot) {
  if (!telemetry_ || !telemetry_->tracing()) return;
  *slot = telemetry_->open_span();
  span_opened_ = loop_.now();
  telemetry_->push_span(*slot);
}

void DashPlayer::open_span_record(std::uint64_t id, const char* name,
                                  int level, int chunk, Bytes bytes,
                                  double deadline_s) {
  if (id == 0) return;
  TraceRecord r;
  r.at = loop_.now();
  r.type = TraceType::kSpanStart;
  r.span = id;
  r.label = name;
  r.level = level;
  r.chunk = chunk;
  r.bytes = bytes;
  r.value = deadline_s;
  telemetry_->emit(r);
}

void DashPlayer::close_span(std::uint64_t* slot, const char* status,
                            int level, int chunk, Bytes bytes) {
  if (*slot == 0) return;
  emit_span_end(*slot, span_opened_, status, level, chunk, bytes);
  *slot = 0;
}

void DashPlayer::emit_span_end(SpanId id, TimePoint opened,
                               const char* status, int level, int chunk,
                               Bytes bytes) {
  if (id == 0) return;
  TraceRecord r;
  r.at = loop_.now();
  r.type = TraceType::kSpanEnd;
  r.span = id;
  r.label = status;
  r.level = level;
  r.chunk = chunk;
  r.bytes = bytes;
  r.value = to_seconds(loop_.now() - opened);
  telemetry_->emit(r);
  telemetry_->pop_span(id);
}

void DashPlayer::log(PlayerEventType type, int level, int chunk, Bytes bytes,
                     double extra, SpanId span) {
  if (!telemetry_) return;
  switch (type) {
    case PlayerEventType::kBufferSample:
      buffer_gauge_.set(extra);
      break;
    case PlayerEventType::kChunkComplete:
      chunks_counter_.increment();
      level_gauge_.set(level);
      break;
    case PlayerEventType::kQualitySwitch:
      switches_counter_.increment();
      break;
    case PlayerEventType::kStallStart:
      stalls_counter_.increment();
      break;
    case PlayerEventType::kChunkRetry:
      retries_counter_.increment();
      break;
    case PlayerEventType::kChunkAbandoned:
      abandoned_counter_.increment();
      break;
    default:
      break;
  }
  if (telemetry_->tracing()) {
    TraceRecord r;
    r.at = loop_.now();
    r.type = TraceType::kPlayer;
    r.label = to_string(type);  // static string table in dash/events.cpp
    r.level = level;
    r.chunk = chunk;
    r.bytes = bytes;
    r.value = extra;
    r.span = span;
    telemetry_->emit(r);
  }
}

}  // namespace mpdash
