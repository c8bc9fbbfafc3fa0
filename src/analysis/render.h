#pragma once
// ASCII rendering of the analysis tool's chunk timeline — the textual
// counterpart of the paper's Figure 8 visualization: one bar per chunk,
// width = download duration, glyph = bitrate level, '#' overlay = the
// fraction delivered over cellular.

#include <string>

#include "analysis/analyzer.h"
#include "analysis/spans.h"

namespace mpdash {

// 100 columns for the whole session; path 1 is the cellular one.
std::string render_chunk_timeline(const AnalysisReport& report);

// Compact per-path usage summary table.
std::string render_path_summary(const AnalysisReport& report);

// Flame/Gantt view of a span model on one shared time axis: every chunk
// span is a bar positioned at its wall-clock window (so pipelined spans
// visibly overlap), with its HTTP attempts and per-path transmit
// activity nested underneath:
//
//   span 7 chunk 4 L1      ........====!...=  abandoned <- retry-backoff
//     http x3              1---x~~2--x~~~3-g
//     path 0                  == ==    ===
//     path 1                    ===
//
// Span bar: '.' in flight, '=' bytes flowing, '!' deadline column.
// HTTP row: digit = attempt start, '-' in flight, '~' retry backoff,
// 'o' response, 'x' timeout, 'g' gave up, '>' still open at trace end.
// Path rows: '=' where that path delivered payload for this span.
// Rows without data (no HTTP records, no payload) are omitted, so older
// span-only traces (golden fixtures) still render as pure Gantt bars.
std::string render_flame(const SpanModel& model, int width = 72);

}  // namespace mpdash
