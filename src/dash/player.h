#pragma once
// DASH video player.
//
// Control loop: fetch manifest -> repeatedly (pick level via the rate
// adaptation, let the MP-DASH adapter set up the chunk's deadline, GET the
// chunk, feed the playback buffer) -> drain. Playback consumes buffered
// seconds in real time; an empty buffer while playing is a stall
// (rebuffering) event. All externally relevant behavior lands in the
// kPlayer trace records and per-chunk records consumed by the analysis +
// experiment layers.

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "adapt/adaptation.h"
#include "dash/buffer.h"
#include "dash/events.h"
#include "dash/manifest.h"
#include "dash/video.h"
#include "http/client.h"
#include "sim/event_loop.h"

namespace mpdash {

// Integration points for the MP-DASH video adapter. The player itself
// stays adapter-agnostic: with null hooks it is a vanilla DASH client.
class StreamingHooks {
 public:
  virtual ~StreamingHooks() = default;
  // Aggregate multipath throughput to expose to the adaptation (zero-rate
  // = no override).
  virtual DataRate throughput_override(const AdaptationView& view) {
    (void)view;
    return DataRate::bits_per_second(0);
  }
  // About to request `size` bytes of chunk `chunk` at `level`; the
  // adapter may activate the deadline scheduler here. `span` is the
  // chunk's causal span (0 when tracing is off) so scheduler records can
  // be tagged with their owner even when several chunks are in flight.
  // Returns the deadline it set, if any (recorded in the chunk log).
  virtual std::optional<Duration> on_chunk_request(const AdaptationView& view,
                                                   int level, Bytes size,
                                                   int chunk, SpanId span) {
    (void)view; (void)level; (void)size; (void)chunk; (void)span;
    return std::nullopt;
  }
  // Chunk `chunk` finished (delivered or abandoned). With pipelining,
  // completions can arrive while other chunks are still in flight.
  virtual void on_chunk_complete(const AdaptationView& view, int chunk) {
    (void)view; (void)chunk;
  }
};

struct PlayerConfig {
  Duration buffer_capacity = seconds(40.0);
  // Playback begins once this much content is buffered (and resumes from
  // a stall the same way).
  Duration startup_buffer = seconds(8.0);
  // Graceful degradation: total fetch attempts per chunk before the chunk
  // is abandoned and playback skips over it. Each retry downshifts one
  // quality level (smaller segment, better odds on a degraded network).
  // Only reachable when the HttpClient can fail a transfer (retry layer
  // on); with the default client a chunk fetch never completes with an
  // error and these settings are inert.
  int max_chunk_attempts = 3;
  // Prefetch lookahead: maximum chunk requests in flight at once. 1 =
  // strict sequential fetching (seed behavior). Larger values issue the
  // next request while earlier ones download — guarded by buffer room
  // for every outstanding chunk, suppressed while stalled, and paused
  // when the oldest in-flight chunk has blown past its deadline — with
  // the adaptation decision re-evaluated at each issue time. Pair with
  // HttpClientConfig::max_pipeline >= this so prefetched requests
  // actually reach the wire.
  int max_inflight_chunks = 1;
};

struct ChunkRecord {
  int chunk = 0;
  int level = 0;
  std::uint64_t span = 0;  // causal span id (0 when tracing was off)
  Bytes bytes = 0;
  TimePoint requested = kTimeZero;
  TimePoint completed = kTimeZero;
  std::optional<Duration> deadline;  // set when MP-DASH was active
  double buffer_at_request_s = 0.0;

  Duration download_time() const { return completed - requested; }
};

class DashPlayer {
 public:
  DashPlayer(EventLoop& loop, HttpClient& client, RateAdaptation& adaptation,
             PlayerConfig config = {}, StreamingHooks* hooks = nullptr);
  ~DashPlayer();

  DashPlayer(const DashPlayer&) = delete;
  DashPlayer& operator=(const DashPlayer&) = delete;

  // Fetches the manifest and starts streaming.
  void start();
  // Invoked when the last buffered second has played out.
  void set_done_callback(std::function<void()> cb) { on_done_ = std::move(cb); }

  bool done() const { return done_; }
  const std::optional<Video>& video() const { return video_; }
  const std::vector<ChunkRecord>& chunks() const { return chunk_log_; }
  const PlaybackBuffer* buffer() const { return buffer_ ? &*buffer_ : nullptr; }

  int stall_count() const { return stall_count_; }
  Duration total_stall_time() const { return total_stall_; }
  int quality_switches() const { return switches_; }
  int chunk_retries() const { return chunk_retries_; }
  int chunks_abandoned() const { return chunks_abandoned_; }
  // True if the manifest never arrived (session over before it started).
  bool manifest_failed() const { return manifest_failed_; }

  // Registers `player.*` metrics and emits each player event as a kPlayer
  // trace record. nullptr detaches.
  void set_telemetry(Telemetry* telemetry);

 private:
  // One outstanding chunk request. The player keeps up to
  // max_inflight_chunks of these; with the default of 1 the deque never
  // holds more than one entry and the control flow is exactly the old
  // sequential player's.
  struct InflightChunk {
    int chunk = 0;
    int level = 0;              // current attempt's level (retries downshift)
    int attempt = 0;            // failed attempts so far
    SpanId span = 0;            // 0 when tracing is off
    TimePoint span_opened = kTimeZero;
    TimePoint requested = kTimeZero;  // latest attempt's request time
    std::optional<Duration> deadline;  // adapter-set, relative to issue
    TimePoint abs_deadline = TimePoint::max();
    double buffer_at_request_s = 0.0;
  };
  using InflightIter = std::deque<InflightChunk>::iterator;

  void on_manifest(const HttpTransfer& transfer);
  void schedule_fetch(int lookahead);
  void fetch_next_chunk();
  void issue_chunk();
  InflightIter find_inflight(int chunk);
  void on_chunk_done(int chunk, const HttpTransfer& transfer);
  void on_chunk_failed(InflightIter it);
  void abandon_chunk(InflightIter it);
  // True once every chunk has been issued AND delivered/abandoned:
  // nothing will ever refill the buffer again.
  bool no_more_chunks() const {
    return next_chunk_ >= video_->chunk_count() && inflight_.empty();
  }
  AdaptationView make_view() const;
  void maybe_start_playback();
  void arm_depletion_watch();
  void on_depleted();
  void sample_buffer();
  // Counts the event in its `player.*` metric and emits it as a kPlayer
  // record. `span` stamps the record explicitly (0 = ambient top-of-stack
  // stamping, which is only unambiguous while at most one span is open).
  void log(PlayerEventType type, int level = -1, int chunk = -1,
           Bytes bytes = 0, double extra = 0.0, SpanId span = 0);
  void finish();
  // Span lifecycle: one causal span per chunk request (and one for the
  // manifest), pushed onto the telemetry span stack while open. Retries
  // stay inside the span that opened the request; closes pop their own
  // id, so out-of-order completions never disturb sibling spans.
  void activate_span(std::uint64_t* slot);
  void open_span_record(std::uint64_t id, const char* name, int level,
                        int chunk, Bytes bytes, double deadline_s);
  void close_span(std::uint64_t* slot, const char* status, int level,
                  int chunk, Bytes bytes);
  void emit_span_end(SpanId id, TimePoint opened, const char* status,
                     int level, int chunk, Bytes bytes);

  EventLoop& loop_;
  HttpClient& client_;
  RateAdaptation& adaptation_;
  PlayerConfig config_;
  StreamingHooks* hooks_;

  std::optional<Video> video_;
  std::optional<PlaybackBuffer> buffer_;
  std::function<void()> on_done_;

  int next_chunk_ = 0;  // next chunk to ISSUE (advances at request time)
  int last_level_ = -1;  // level of the last DELIVERED chunk
  int manifest_attempt_ = 0;
  bool manifest_failed_ = false;
  bool playing_started_ = false;
  bool stalled_ = false;
  TimePoint stall_started_ = kTimeZero;
  bool all_fetched_ = false;
  bool done_ = false;

  DataRate last_chunk_throughput_;
  std::deque<InflightChunk> inflight_;  // issue order (front = oldest)
  std::uint64_t manifest_span_ = 0;
  TimePoint span_opened_ = kTimeZero;  // manifest span only

  EventId fetch_timer_;
  EventId depletion_timer_;
  EventId sample_timer_;

  std::vector<ChunkRecord> chunk_log_;
  int stall_count_ = 0;
  Duration total_stall_ = kDurationZero;
  int switches_ = 0;
  int chunk_retries_ = 0;
  int chunks_abandoned_ = 0;

  Telemetry* telemetry_ = nullptr;
  Gauge buffer_gauge_;
  Gauge level_gauge_;
  Counter stalls_counter_;
  Counter switches_counter_;
  Counter chunks_counter_;
  Counter retries_counter_;
  Counter abandoned_counter_;
};

}  // namespace mpdash
