#pragma once
// Campaign-scale attribution roll-ups: aggregate the per-span attribution
// of many traces (a whole chaos campaign, a field study) into per-cause
// miss rates keyed by seed/config — the layer that turns 50 per-seed
// post-mortems into one regression-attribution table. Also home of the
// RFC-4180 per-span CSV export shared by `mpdash_trace --csv`, and of the
// time-bucketed attribution series the field benches emit per location.
//
// Every formatter here renders doubles with json_double, the JSONL
// writer's shortest round-trip form, so CSV artifacts never lose precision
// against the trace they came from, and walks causes in
// kMissCausePrecedence order so row/column ordering is deterministic.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/spans.h"

namespace mpdash {

// One CSV row per span (RFC-4180 quoting: labels carrying commas/quotes
// survive round-trips through parse_csv). Includes the overlap-aware
// fault fields and the dominant fault kind.
std::string spans_to_csv(const SpanModel& model);

// One aggregated line of a roll-up: the attribution of a single run.
struct RollupRow {
  std::string key;  // seed (numeric trace suffix) or source basename
  std::size_t spans = 0;
  int misses = 0;
  // kMissCausePrecedence order, zero counts kept.
  std::vector<std::pair<MissCause, int>> counts;

  double miss_rate() const {
    return spans > 0 ? static_cast<double>(misses) /
                           static_cast<double>(spans)
                     : 0.0;
  }
};

// Roll-up key for a trace path: a trailing numeric extension (the chaos
// campaign's `<base>.jsonl.<seed>` convention) keys the row by that seed,
// so roll-ups over jobs-1 and jobs-8 artifacts with different base names
// compare bitwise. Anything else keys by basename.
std::string rollup_source_key(const std::string& path);

// The one roll-up row order: numeric keys (seeds) first, in numeric
// order, then the rest in byte order. `mpdash_trace rollup` sorts its
// inputs by it and `mpdash_sim chaos --attrib` its rows, so the two routes
// to a campaign's roll-up give the same bytes.
bool rollup_key_less(const std::string& a, const std::string& b);

// Collapses one attributed span model into its roll-up row.
RollupRow rollup_span_model(const SpanModel& model, std::string key);

// The "total" row: every row's spans, misses and per-cause counts summed.
RollupRow rollup_total(const std::vector<RollupRow>& rows);

// Renders rows in input order plus the trailing rollup_total row.
// Columns: key, span/miss counts, overall miss rate, then per-cause counts
// and per-cause miss rates in precedence order.
extern const char kRollupCsvHeader[];  // includes the trailing newline
std::string rollup_to_csv(const std::vector<RollupRow>& rows);

// Time-bucketed attribution series: for every `bucket_s` slice of the
// session that saw a span end, one row of per-cause miss counts, each
// prefixed with `key` ("<location>/<algo>/<scheme>" in the field benches)
// so campaign-level concatenation stays unambiguous.
extern const char kAttribSeriesHeader[];  // includes the trailing newline
std::string attribution_series_csv(const SpanModel& model, double bucket_s,
                                   const std::string& key);

}  // namespace mpdash
