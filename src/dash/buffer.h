#pragma once
// Playback buffer: seconds of downloaded-but-unplayed content.
//
// Lazy continuous-time accounting: the level is recomputed from the last
// update instant, draining at 1 s/s while playing. The player drives
// state transitions (playing/paused) and reads the level for adaptation
// and for MP-DASH's deadline extension.

#include "util/units.h"

namespace mpdash {

class PlaybackBuffer {
 public:
  explicit PlaybackBuffer(Duration capacity);

  Duration capacity() const { return capacity_; }

  // Content seconds buffered at time `now`.
  Duration level(TimePoint now) const;

  // True if a chunk of `chunk_duration` still fits at `now`.
  bool has_room(TimePoint now, Duration chunk_duration) const;

  // Adds one downloaded chunk's play time. Clamps at capacity (the player
  // should avoid fetching into a full buffer; clamping guards rounding).
  void add(TimePoint now, Duration chunk_duration);

  // Playback control.
  void set_playing(TimePoint now, bool playing);

  // Time at which the buffer empties if no chunk arrives (TimePoint::max()
  // when paused or already empty-proof).
  TimePoint depletion_time(TimePoint now) const;

  // Total content seconds ever added (= play position + level).
  Duration total_added() const { return total_added_; }

 private:
  void settle(TimePoint now) const;

  Duration capacity_;
  mutable Duration level_ = kDurationZero;
  mutable TimePoint last_update_ = kTimeZero;
  bool playing_ = false;
  Duration total_added_ = kDurationZero;
};

}  // namespace mpdash
