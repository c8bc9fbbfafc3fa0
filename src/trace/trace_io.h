#pragma once
// CSV serialization of bandwidth traces (time_s,rate_mbps rows), so field
// traces can be exported, inspected, and replayed across runs.

#include <string>

#include "trace/bandwidth_trace.h"

namespace mpdash {

// Serializes a trace as "time_s,rate_mbps" CSV with a header row.
std::string trace_to_csv(const BandwidthTrace& trace);

// Parses a trace from CSV produced by trace_to_csv (header optional).
// Throws std::invalid_argument on malformed input.
BandwidthTrace trace_from_csv(const std::string& csv);

// Throws on unreadable file or malformed content.
BandwidthTrace load_trace(const std::string& path);

}  // namespace mpdash
