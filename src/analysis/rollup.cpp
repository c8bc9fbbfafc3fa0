#include "analysis/rollup.h"

#include <cstdlib>
#include <map>

#include "util/csv.h"
#include "util/json.h"

namespace mpdash {

namespace {

std::string cell(const std::string& s) { return CsvWriter::escape(s); }

std::string num(double v) { return json_double(v); }

std::string num(long long v) { return std::to_string(v); }

}  // namespace

std::string spans_to_csv(const SpanModel& model) {
  std::string out =
      "span,name,chunk,level,start_s,end_s,elapsed_s,deadline_s,"
      "status,missed,cause,requested_bytes,delivered_bytes,"
      "preferred_bytes,costly_bytes,http_timeouts,http_retries,"
      "backoff_s,chunk_retries,stalls,path_fault_s,server_fault_s,"
      "fault_share_s,max_concurrent_spans,dominant_fault\n";
  for (const ChunkTimeline& t : model.spans) {
    Bytes preferred = 0, costly = 0;
    for (const auto& [p, bytes] : t.bytes_by_path) {
      (p == 0 ? preferred : costly) += bytes;
    }
    out += std::to_string(t.span);
    out += ',' + cell(t.name ? t.name : "");
    out += ',' + std::to_string(t.chunk);
    out += ',' + std::to_string(t.level);
    out += ',' + num(to_seconds(t.start));
    out += ',' + num(to_seconds(t.end));
    out += ',' + num(t.elapsed_s());
    out += ',' + num(t.deadline_s);
    out += ',' + cell(t.status ? t.status : "open");
    out += t.cause != MissCause::kNone ? ",1," : ",0,";
    out += to_string(t.cause);
    out += ',' + num(static_cast<long long>(t.requested_bytes));
    out += ',' + num(static_cast<long long>(t.delivered_bytes));
    out += ',' + num(static_cast<long long>(preferred));
    out += ',' + num(static_cast<long long>(costly));
    out += ',' + std::to_string(t.http_timeouts);
    out += ',' + std::to_string(t.http_retries);
    out += ',' + num(t.backoff_s);
    out += ',' + std::to_string(t.chunk_retries);
    out += ',' + std::to_string(t.stalls_started);
    out += ',' + num(t.path_fault_overlap_s);
    out += ',' + num(t.server_fault_overlap_s);
    out += ',' + num(t.fault_overlap_share_s);
    out += ',' + std::to_string(t.max_concurrent_spans);
    out += ',' + cell(t.dominant_fault_kind ? t.dominant_fault_kind : "");
    out += '\n';
  }
  return out;
}

std::string rollup_source_key(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot + 1 < base.size()) {
    const std::string tail = base.substr(dot + 1);
    if (tail.find_first_not_of("0123456789") == std::string::npos) {
      return tail;
    }
  }
  return base;
}

bool rollup_key_less(const std::string& a, const std::string& b) {
  const bool na = a.find_first_not_of("0123456789") == std::string::npos;
  const bool nb = b.find_first_not_of("0123456789") == std::string::npos;
  if (na != nb) return na;  // numeric seeds first
  if (na) {
    const unsigned long long va = std::strtoull(a.c_str(), nullptr, 10);
    const unsigned long long vb = std::strtoull(b.c_str(), nullptr, 10);
    if (va != vb) return va < vb;
  }
  return a < b;
}

RollupRow rollup_span_model(const SpanModel& model, std::string key) {
  RollupRow row;
  row.key = std::move(key);
  row.spans = model.spans.size();
  row.counts = attribution_counts(model);
  for (const auto& [cause, count] : row.counts) row.misses += count;
  return row;
}

const char kRollupCsvHeader[] =
    "key,spans,misses,miss_rate,fault_blackout,retry_backoff,"
    "scheduler_late,bandwidth_shortfall,unknown,fault_blackout_rate,"
    "retry_backoff_rate,scheduler_late_rate,bandwidth_shortfall_rate,"
    "unknown_rate\n";

RollupRow rollup_total(const std::vector<RollupRow>& rows) {
  RollupRow total;
  total.key = "total";
  for (const MissCause c : kMissCausePrecedence) total.counts.emplace_back(c, 0);
  for (const RollupRow& row : rows) {
    total.spans += row.spans;
    total.misses += row.misses;
    for (auto& [cause, count] : total.counts) {
      count += count_for(row.counts, cause);
    }
  }
  return total;
}

namespace {

std::string rollup_row_csv(const RollupRow& row) {
  std::string out = cell(row.key);
  out += ',' + std::to_string(row.spans);
  out += ',' + std::to_string(row.misses);
  out += ',' + num(row.miss_rate());
  // Both passes walk kMissCausePrecedence via row.counts, so the column
  // order matches kRollupCsvHeader by construction.
  for (const auto& [cause, count] : row.counts) {
    out += ',' + std::to_string(count);
  }
  for (const auto& [cause, count] : row.counts) {
    out += ',' + num(row.spans > 0 ? static_cast<double>(count) /
                                         static_cast<double>(row.spans)
                                   : 0.0);
  }
  out += '\n';
  return out;
}

}  // namespace

std::string rollup_to_csv(const std::vector<RollupRow>& rows) {
  std::string out = kRollupCsvHeader;
  for (const RollupRow& row : rows) out += rollup_row_csv(row);
  out += rollup_row_csv(rollup_total(rows));
  return out;
}

const char kAttribSeriesHeader[] =
    "key,bucket_s,spans_ended,misses,fault_blackout,retry_backoff,"
    "scheduler_late,bandwidth_shortfall,unknown\n";

std::string attribution_series_csv(const SpanModel& model, double bucket_s,
                                   const std::string& key) {
  if (bucket_s <= 0.0) return {};
  struct Bucket {
    int ended = 0;
    int misses = 0;
    std::map<MissCause, int> by_cause;
  };
  std::map<long long, Bucket> buckets;  // keyed by bucket index
  for (const ChunkTimeline& t : model.spans) {
    const long long idx =
        static_cast<long long>(to_seconds(t.end) / bucket_s);
    Bucket& b = buckets[idx];
    ++b.ended;
    if (t.cause != MissCause::kNone) {
      ++b.misses;
      ++b.by_cause[t.cause];
    }
  }
  std::string out;
  const std::string prefix = cell(key);
  for (const auto& [idx, b] : buckets) {
    out += prefix;
    out += ',' + num(static_cast<double>(idx) * bucket_s);
    out += ',' + std::to_string(b.ended);
    out += ',' + std::to_string(b.misses);
    for (const MissCause c : kMissCausePrecedence) {
      const auto it = b.by_cause.find(c);
      out += ',' + std::to_string(it == b.by_cause.end() ? 0 : it->second);
    }
    out += '\n';
  }
  return out;
}

}  // namespace mpdash
