#pragma once
// Player event types. The player emits each event into the run's trace as
// a kPlayer record labelled to_string(type) (see DashPlayer::log); the
// cross-layer analysis tool (src/analysis) reads them back from the same
// trace it reads the packets from.

#include <cstdint>

#include "telemetry/trace_sink.h"

namespace mpdash {

// What each kPlayer record's level, chunk, bytes and value fields carry.
enum class PlayerEventType : std::uint8_t {
  kPlaybackStart,
  kChunkRequest,   // level, chunk, bytes(size), value(deadline seconds)
  kChunkComplete,  // level, chunk, bytes(received)
  kQualitySwitch,  // level(new), chunk, value(old level)
  kStallStart,
  kStallEnd,       // value(stall seconds)
  kBufferSample,   // value(buffer seconds)
  kPlaybackDone,
  kChunkRetry,     // level(retry level), chunk, value(attempt number)
  kChunkAbandoned, // level(last tried), chunk
};

const char* to_string(PlayerEventType t);

// True for the kPlayer record of an event of `type`.
bool is_player_event(const TraceRecord& r, PlayerEventType type);

}  // namespace mpdash
