#include "analysis/spans.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "dash/events.h"

namespace mpdash {

const char* to_string(MissCause c) {
  switch (c) {
    case MissCause::kNone: return "none";
    case MissCause::kFaultBlackout: return "fault-blackout";
    case MissCause::kRetryBackoff: return "retry-backoff";
    case MissCause::kSchedulerLate: return "scheduler-late";
    case MissCause::kBandwidthShortfall: return "bandwidth-shortfall";
    case MissCause::kUnknown: return "unknown";
  }
  return "unknown";
}

int fault_kind_rank(const char* kind) {
  // Documented tie-break precedence (see spans.h). Keep in sync with the
  // FaultKind labels in src/fault/fault.cpp.
  static constexpr const char* kRanked[] = {
      "blackout",     "flap",         "rate_collapse", "loss_burst",
      "rtt_spike",    "server_stall", "server_reset",
  };
  if (kind == nullptr) return static_cast<int>(std::size(kRanked)) + 1;
  for (std::size_t i = 0; i < std::size(kRanked); ++i) {
    if (std::strcmp(kind, kRanked[i]) == 0) return static_cast<int>(i);
  }
  return static_cast<int>(std::size(kRanked));
}

bool ChunkTimeline::missed() const {
  if (status && std::strcmp(status, "abandoned") == 0) return true;
  if (status && std::strcmp(status, "failed") == 0) return true;
  if (sched_missed) return true;
  return deadline_s > 0.0 && elapsed_s() > deadline_s;
}

const ChunkTimeline* SpanModel::find(SpanId id) const {
  const auto it = std::lower_bound(
      spans.begin(), spans.end(), id,
      [](const ChunkTimeline& t, SpanId s) { return t.span < s; });
  if (it == spans.end() || it->span != id) return nullptr;
  return &*it;
}

namespace {

bool label_is(const TraceRecord& r, const char* name) {
  return r.label != nullptr && std::strcmp(r.label, name) == 0;
}

using Interval = std::pair<TimePoint, TimePoint>;

// Deliveries at most this far apart fuse into one path-activity interval.
constexpr Duration kActivityMergeGap = milliseconds(50);

// Sorted, merged union; empty pieces dropped.
std::vector<Interval> merge_intervals(std::vector<Interval> iv) {
  std::vector<Interval> out;
  std::sort(iv.begin(), iv.end());
  for (const Interval& i : iv) {
    if (i.second <= i.first) continue;
    if (!out.empty() && i.first <= out.back().second) {
      out.back().second = std::max(out.back().second, i.second);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

// Seconds of [a, b) covered by the merged union.
double union_overlap_s(const std::vector<Interval>& merged, TimePoint a,
                       TimePoint b) {
  double s = 0.0;
  for (const Interval& i : merged) {
    const TimePoint lo = std::max(i.first, a);
    const TimePoint hi = std::min(i.second, b);
    if (hi > lo) s += to_seconds(hi - lo);
  }
  return s;
}

// Fill the overlap-aware fields: per-span fault coverage by scope, plus
// an apportioned share computed over the piecewise-constant count of
// concurrently open spans (a blackout shared by three in-flight chunks
// charges each one a third of it).
void overlap_post_pass(SpanModel& model) {
  std::vector<Interval> path_iv, server_iv, all_iv;
  for (const FaultWindow& w : model.faults) {
    (w.server_scoped() ? server_iv : path_iv).push_back({w.start, w.end});
    all_iv.push_back({w.start, w.end});
  }
  const auto path_u = merge_intervals(std::move(path_iv));
  const auto server_u = merge_intervals(std::move(server_iv));
  const auto all_u = merge_intervals(std::move(all_iv));

  // Per-kind interval unions, ordered by the documented kind precedence
  // (fault_kind_rank, then name). Never keyed by the interned pointer:
  // pointer order varies run to run, and an equal-share tie resolved by
  // map order would make the dominant kind nondeterministic.
  struct KindUnion {
    const char* kind;
    std::vector<Interval> merged;
  };
  std::vector<KindUnion> kind_u;
  for (const FaultWindow& w : model.faults) {
    const char* kind = w.kind ? w.kind : "unknown";
    auto it = std::find_if(kind_u.begin(), kind_u.end(),
                           [kind](const KindUnion& k) {
                             return std::strcmp(k.kind, kind) == 0;
                           });
    if (it == kind_u.end()) {
      kind_u.push_back({kind, {}});
      it = std::prev(kind_u.end());
    }
    it->merged.push_back({w.start, w.end});
  }
  std::sort(kind_u.begin(), kind_u.end(),
            [](const KindUnion& a, const KindUnion& b) {
              const int ra = fault_kind_rank(a.kind);
              const int rb = fault_kind_rank(b.kind);
              if (ra != rb) return ra < rb;
              return std::strcmp(a.kind, b.kind) < 0;
            });
  for (KindUnion& k : kind_u) k.merged = merge_intervals(std::move(k.merged));

  struct Edge {
    TimePoint at;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(model.spans.size() * 2);
  for (const ChunkTimeline& t : model.spans) {
    if (t.end <= t.start) continue;
    edges.push_back({t.start, +1});
    edges.push_back({t.end, -1});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.delta < b.delta;  // close before open at the same instant
  });
  struct Piece {
    TimePoint start;
    TimePoint end;
    int count;
  };
  std::vector<Piece> pieces;
  int count = 0;
  TimePoint prev = kTimeZero;
  bool have_prev = false;
  for (const Edge& e : edges) {
    if (have_prev && e.at > prev && count > 0) {
      pieces.push_back({prev, e.at, count});
    }
    count += e.delta;
    prev = e.at;
    have_prev = true;
  }

  for (ChunkTimeline& t : model.spans) {
    t.path_fault_overlap_s = union_overlap_s(path_u, t.start, t.end);
    t.server_fault_overlap_s = union_overlap_s(server_u, t.start, t.end);
    t.fault_overlap_by_kind.clear();
    t.dominant_fault_kind = nullptr;
    double best = 0.0;
    for (const KindUnion& k : kind_u) {
      const double s = union_overlap_s(k.merged, t.start, t.end);
      if (s <= 0.0) continue;
      t.fault_overlap_by_kind.emplace_back(k.kind, s);
      // kind_u is precedence-sorted, so a strict '>' keeps the earlier
      // (higher-precedence) kind on an exact tie.
      if (s > best) {
        best = s;
        t.dominant_fault_kind = k.kind;
      }
    }
    t.fault_overlap_share_s = 0.0;
    int peak = 0;
    for (const Piece& p : pieces) {
      const TimePoint lo = std::max(p.start, t.start);
      const TimePoint hi = std::min(p.end, t.end);
      if (hi <= lo) continue;
      peak = std::max(peak, p.count);
      const double covered = union_overlap_s(all_u, lo, hi);
      if (covered > 0.0) t.fault_overlap_share_s += covered / p.count;
    }
    t.max_concurrent_spans = std::max(peak, 1);
  }
}

}  // namespace

std::uint32_t span_model_trace_mask() {
  return (1u << static_cast<unsigned>(TraceType::kSpanStart)) |
         (1u << static_cast<unsigned>(TraceType::kSpanEnd)) |
         (1u << static_cast<unsigned>(TraceType::kHttp)) |
         (1u << static_cast<unsigned>(TraceType::kFault)) |
         (1u << static_cast<unsigned>(TraceType::kSchedDecision)) |
         (1u << static_cast<unsigned>(TraceType::kPlayer)) |
         (1u << static_cast<unsigned>(TraceType::kPacketDeliver));
}

void SpanModelBuilder::on_record(const TraceRecord& r) {
  ++model_.records;
  ++model_.records_by_type[static_cast<std::size_t>(r.type)];
  if (r.at > model_.trace_end) model_.trace_end = r.at;
  if (r.type == TraceType::kSubflowUpdate) {
    model_.subflow[r.path_id].push_back({r.at, r.cwnd, r.srtt_ms});
  }
  if (r.type == TraceType::kFault) {
    if (r.enabled) {
      FaultWindow w;
      w.kind = r.label;
      w.path_id = r.path_id;
      w.start = r.at;
      w.end = r.at;
      model_.faults.push_back(w);
    } else {
      for (auto it = model_.faults.rbegin(); it != model_.faults.rend();
           ++it) {
        if (!it->closed && it->path_id == r.path_id &&
            ((it->kind == nullptr && r.label == nullptr) ||
             (it->kind && r.label && std::strcmp(it->kind, r.label) == 0))) {
          it->end = r.at;
          it->closed = true;
          break;
        }
      }
    }
    return;  // faults are trace-global, not span-owned
  }
  if (r.span == 0) {
    ++model_.unspanned_records;
    return;
  }
  auto [it, inserted] = open_.try_emplace(r.span);
  ChunkTimeline& t = it->second;
  if (inserted) {
    // Records can precede the kSpanStart of their span (the player
    // activates the id before level selection); the start record
    // overwrites this provisional anchor.
    t.span = r.span;
    t.start = r.at;
    t.end = r.at;
  }
  // Attempts within a span are sequential (retries wait out the backoff),
  // so a closing record belongs to the last still-open attempt.
  const auto close_attempt = [&t, &r] {
    for (auto a = t.attempts.rbegin(); a != t.attempts.rend(); ++a) {
      if (a->outcome == nullptr) {
        a->end = r.at;
        a->outcome = r.label;
        return;
      }
    }
  };
  switch (r.type) {
    case TraceType::kSpanStart:
      t.name = r.label;
      t.chunk = r.chunk;
      t.level = r.level;
      t.requested_bytes = r.bytes;
      t.deadline_s = r.value;
      t.start = r.at;
      break;
    case TraceType::kSpanEnd:
      t.status = r.label;
      t.delivered_bytes = r.bytes;
      t.end = r.at;
      break;
    case TraceType::kSchedDecision:
      if (label_is(r, "begin")) {
        t.sched_engaged = true;
        t.sched_begin = r.at;
      } else if (label_is(r, "miss")) {
        t.sched_missed = true;
      } else if (label_is(r, "enable") && r.enabled) {
        t.first_enable_by_path.try_emplace(r.path_id, r.at);
      }
      break;
    case TraceType::kPacketDeliver:
      if (r.kind == PacketKind::kData && r.is_downlink() &&
          r.payload_len > 0) {
        t.bytes_by_path[r.path_id] += r.payload_len;
        if (!t.have_bytes) {
          t.first_byte = r.at;
          t.have_bytes = true;
        }
        t.last_byte = r.at;
        auto& iv = t.path_activity[r.path_id];
        if (!iv.empty() && r.at - iv.back().second <= kActivityMergeGap) {
          iv.back().second = std::max(iv.back().second, r.at);
        } else {
          iv.push_back({r.at, r.at});
        }
      }
      break;
    case TraceType::kHttp:
      if (label_is(r, "request")) {
        t.attempts.push_back({r.level, r.at, r.at, nullptr});
      } else if (label_is(r, "timeout")) {
        ++t.http_timeouts;
        close_attempt();
      } else if (label_is(r, "retry")) {
        ++t.http_retries;
        t.backoff_s += r.value;
      } else if (label_is(r, "response") || label_is(r, "giveup")) {
        close_attempt();
      }
      break;
    case TraceType::kPlayer:
      if (is_player_event(r, PlayerEventType::kChunkRetry)) {
        ++t.chunk_retries;
      } else if (is_player_event(r, PlayerEventType::kStallStart)) {
        ++t.stalls_started;
      }
      break;
    default:
      break;
  }
}

SpanModel SpanModelBuilder::finish() {
  model_.spans.reserve(open_.size());
  for (auto& [id, t] : open_) {
    if (!t.closed()) t.end = model_.trace_end;  // trace ended mid-flight
    // An attempt the trace ended on extends to its span's end, so its bar
    // has a width.
    for (HttpAttempt& a : t.attempts) {
      if (a.outcome == nullptr) a.end = std::max(a.start, t.end);
    }
    model_.spans.push_back(std::move(t));
  }
  open_.clear();
  for (FaultWindow& w : model_.faults) {
    if (!w.closed) w.end = model_.trace_end;
  }
  overlap_post_pass(model_);
  return std::move(model_);
}

SpanModel build_span_model(const std::vector<TraceRecord>& trace) {
  SpanModelBuilder builder;
  for (const TraceRecord& r : trace) builder.on_record(r);
  return builder.finish();
}

void attribute_misses(SpanModel* model, int preferred_path) {
  model->preferred_path = preferred_path;
  for (ChunkTimeline& t : model->spans) {
    // Derive the costly-path milestones now that the preferred path is
    // known.
    t.costly_enabled = false;
    for (const auto& [path, at] : t.first_enable_by_path) {
      if (path == preferred_path) continue;
      if (!t.costly_enabled || at < t.first_costly_enable) {
        t.first_costly_enable = at;
        t.costly_enabled = true;
      }
    }

    if (!t.missed()) {
      t.cause = MissCause::kNone;
      continue;
    }

    // Overlap-aware: the post-pass already intersected every fault window
    // with this span, so pipelined traces (several spans sharing one
    // blackout) attribute each affected span independently.
    const bool path_fault = t.path_fault_overlap_s > 0.0;
    const bool server_fault = t.server_fault_overlap_s > 0.0;

    // Precedence: an injected link fault is the root cause even when the
    // recovery stack also burned budget reacting to it; retry backoff
    // explains the miss when the origin (not the path) misbehaved and
    // the client kept re-asking; with recovery off that same server
    // fault is the direct cause; only a fault-free miss can indict the
    // scheduler, and only a timely scheduler leaves bandwidth to blame.
    if (path_fault) {
      t.cause = MissCause::kFaultBlackout;
    } else if (t.http_timeouts > 0 || t.http_retries > 0 ||
               t.chunk_retries > 0) {
      t.cause = MissCause::kRetryBackoff;
    } else if (server_fault) {
      t.cause = MissCause::kFaultBlackout;
    } else if (t.sched_engaged && t.deadline_s > 0.0 &&
               (!t.costly_enabled ||
                to_seconds(t.first_costly_enable - t.start) >
                    0.5 * t.deadline_s)) {
      t.cause = MissCause::kSchedulerLate;
    } else if (t.sched_engaged || t.have_bytes) {
      t.cause = MissCause::kBandwidthShortfall;
    } else {
      t.cause = MissCause::kUnknown;
    }
  }
}

std::vector<std::pair<MissCause, int>> attribution_counts(
    const SpanModel& model) {
  std::vector<std::pair<MissCause, int>> counts;
  for (const MissCause c : kMissCausePrecedence) counts.emplace_back(c, 0);
  for (const ChunkTimeline& t : model.spans) {
    if (t.cause == MissCause::kNone) continue;
    for (auto& [cause, count] : counts) {
      if (cause == t.cause) ++count;
    }
  }
  return counts;
}

int count_for(const std::vector<std::pair<MissCause, int>>& counts,
              MissCause cause) {
  for (const auto& [c, n] : counts) {
    if (c == cause) return n;
  }
  return 0;
}

}  // namespace mpdash
