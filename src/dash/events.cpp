#include "dash/events.h"

#include <cstring>

namespace mpdash {

const char* to_string(PlayerEventType t) {
  switch (t) {
    case PlayerEventType::kPlaybackStart: return "playback_start";
    case PlayerEventType::kChunkRequest: return "chunk_request";
    case PlayerEventType::kChunkComplete: return "chunk_complete";
    case PlayerEventType::kQualitySwitch: return "quality_switch";
    case PlayerEventType::kStallStart: return "stall_start";
    case PlayerEventType::kStallEnd: return "stall_end";
    case PlayerEventType::kBufferSample: return "buffer_sample";
    case PlayerEventType::kPlaybackDone: return "playback_done";
    case PlayerEventType::kChunkRetry: return "chunk_retry";
    case PlayerEventType::kChunkAbandoned: return "chunk_abandoned";
  }
  return "unknown";
}

bool is_player_event(const TraceRecord& r, PlayerEventType type) {
  return r.type == TraceType::kPlayer && r.label != nullptr &&
         std::strcmp(r.label, to_string(type)) == 0;
}

}  // namespace mpdash
