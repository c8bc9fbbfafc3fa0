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

std::uint32_t flame_trace_mask() {
  return span_model_trace_mask() |
         (1u << static_cast<unsigned>(TraceType::kSubflowUpdate));
}

SpanModel build_span_model(const std::vector<TraceRecord>& trace) {
  SpanModel model;
  model.records = trace.size();
  // Span ids are allocated in increasing order, so a map keyed by id
  // yields timelines in request order.
  std::map<SpanId, ChunkTimeline> open;

  auto timeline = [&open](const TraceRecord& r) -> ChunkTimeline& {
    auto [it, inserted] = open.try_emplace(r.span);
    if (inserted) {
      // Records can precede the kSpanStart of their span (the player
      // activates the id before level selection); the start record
      // overwrites this provisional anchor.
      it->second.span = r.span;
      it->second.start = r.at;
      it->second.end = r.at;
    }
    return it->second;
  };

  for (const TraceRecord& r : trace) {
    if (r.at > model.trace_end) model.trace_end = r.at;
    if (r.type == TraceType::kFault) {
      if (r.enabled) {
        FaultWindow w;
        w.kind = r.label;
        w.path_id = r.path_id;
        w.start = r.at;
        w.end = r.at;
        model.faults.push_back(w);
      } else {
        for (auto it = model.faults.rbegin(); it != model.faults.rend();
             ++it) {
          if (!it->closed && it->path_id == r.path_id &&
              ((it->kind == nullptr && r.label == nullptr) ||
               (it->kind && r.label &&
                std::strcmp(it->kind, r.label) == 0))) {
            it->end = r.at;
            it->closed = true;
            break;
          }
        }
      }
      continue;  // faults are trace-global, not span-owned
    }
    if (r.span == 0) {
      ++model.unspanned_records;
      continue;
    }
    ChunkTimeline& t = timeline(r);
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
        }
        break;
      case TraceType::kHttp:
        if (label_is(r, "timeout")) {
          ++t.http_timeouts;
        } else if (label_is(r, "retry")) {
          ++t.http_retries;
          t.backoff_s += r.value;
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

  model.spans.reserve(open.size());
  for (auto& [id, t] : open) {
    if (!t.closed()) t.end = model.trace_end;  // trace ended mid-flight
    model.spans.push_back(std::move(t));
  }
  for (FaultWindow& w : model.faults) {
    if (!w.closed) w.end = model.trace_end;
  }
  overlap_post_pass(model);
  return model;
}

void attribute_misses(SpanModel* model, int preferred_path) {
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

const SpanDetail* FlameModel::find(const SpanModel& model, SpanId id) const {
  const ChunkTimeline* t = model.find(id);
  if (t == nullptr) return nullptr;
  const std::size_t i = static_cast<std::size_t>(t - model.spans.data());
  return i < details.size() ? &details[i] : nullptr;
}

FlameModel build_flame_model(const std::vector<TraceRecord>& trace,
                             const SpanModel& model, Duration merge_gap) {
  FlameModel flame;
  flame.details.resize(model.spans.size());
  std::map<SpanId, std::size_t> index;
  for (std::size_t i = 0; i < model.spans.size(); ++i) {
    flame.details[i].span = model.spans[i].span;
    index.emplace(model.spans[i].span, i);
  }

  // Subflow updates are connection-scoped, not span-stamped, so collect
  // them globally (sorted by emission order = time order) and slice each
  // span's window out below.
  std::map<int, std::vector<SubflowSample>> subflow_samples;

  for (const TraceRecord& r : trace) {
    if (r.type == TraceType::kSubflowUpdate) {
      subflow_samples[r.path_id].push_back({r.at, r.cwnd, r.srtt_ms});
      continue;
    }
    if (r.span == 0) continue;
    const auto it = index.find(r.span);
    if (it == index.end()) continue;
    SpanDetail& d = flame.details[it->second];
    if (r.type == TraceType::kHttp && r.label != nullptr) {
      if (std::strcmp(r.label, "request") == 0) {
        HttpAttempt a;
        a.attempt = r.level;
        a.start = r.at;
        a.end = r.at;
        d.attempts.push_back(a);
      } else if (std::strcmp(r.label, "response") == 0 ||
                 std::strcmp(r.label, "timeout") == 0 ||
                 std::strcmp(r.label, "giveup") == 0) {
        // Attempts within a span are sequential (retries wait out the
        // backoff), so the closing record always belongs to the last
        // still-open attempt.
        for (auto a = d.attempts.rbegin(); a != d.attempts.rend(); ++a) {
          if (a->outcome == nullptr) {
            a->end = r.at;
            a->outcome = r.label;
            break;
          }
        }
      }
      continue;
    }
    if (r.type == TraceType::kPacketDeliver && r.kind == PacketKind::kData &&
        r.is_downlink() && r.payload_len > 0) {
      auto& iv = d.path_activity[r.path_id];
      if (!iv.empty() && r.at - iv.back().second <= merge_gap) {
        iv.back().second = std::max(iv.back().second, r.at);
      } else {
        iv.push_back({r.at, r.at});
      }
    }
  }

  // Attempts the trace ended on (or that never got a closing record)
  // extend to their span's end so the bar has a width.
  for (std::size_t i = 0; i < flame.details.size(); ++i) {
    for (HttpAttempt& a : flame.details[i].attempts) {
      if (a.outcome == nullptr) {
        a.end = std::max(a.start, model.spans[i].end);
      }
    }
  }

  // Slice each span's time window out of the global subflow streams
  // (samples are time-sorted, so each slice is one binary search + copy).
  for (std::size_t i = 0; i < flame.details.size(); ++i) {
    const ChunkTimeline& t = model.spans[i];
    for (const auto& [path, samples] : subflow_samples) {
      const auto lo = std::lower_bound(
          samples.begin(), samples.end(), t.start,
          [](const SubflowSample& s, TimePoint at) { return s.at < at; });
      const auto hi = std::upper_bound(
          lo, samples.end(), t.end,
          [](TimePoint at, const SubflowSample& s) { return at < s.at; });
      if (lo != hi) {
        flame.details[i].subflow[path].assign(lo, hi);
      }
    }
  }
  return flame;
}

}  // namespace mpdash
