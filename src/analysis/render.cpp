#include "analysis/render.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <sstream>
#include <string_view>

#include "util/table.h"

namespace mpdash {

constexpr int kCellularPath = 1;  // the scenario's (exp/scenario.h)

std::string render_chunk_timeline(const AnalysisReport& report) {
  std::ostringstream out;
  if (report.chunks.empty()) return "(no chunks)\n";
  const double total_s = to_seconds(report.session_length);
  if (total_s <= 0.0) return "(empty session)\n";

  constexpr int width = 100;
  // Row 1: bitrate level digit per column; row 2: cellular share.
  std::string levels(static_cast<std::size_t>(width), ' ');
  std::string cellular(static_cast<std::size_t>(width), ' ');

  auto col = [&](TimePoint t) {
    int c = static_cast<int>(to_seconds(t) / total_s * (width - 1));
    return std::clamp(c, 0, width - 1);
  };

  for (const auto& ch : report.chunks) {
    const int a = col(ch.start);
    const int b = std::max(a, col(ch.end));
    const char glyph =
        ch.level >= 0 ? static_cast<char>('1' + std::min(ch.level, 8)) : '?';
    const double frac = ch.cellular_fraction(kCellularPath);
    for (int c = a; c <= b; ++c) {
      levels[static_cast<std::size_t>(c)] = glyph;
      // Mark the leading fraction of the bar as cellular, like the black
      // component in the paper's figure.
      const double pos = b > a ? static_cast<double>(c - a) /
                                     static_cast<double>(b - a + 1)
                               : 0.0;
      cellular[static_cast<std::size_t>(c)] = pos < frac ? '#' : '.';
    }
  }

  out << "chunk level (digit = level+1, gap = idle):\n  " << levels << "\n";
  out << "cellular share ('#' portion of each bar):\n  " << cellular << "\n";
  out << "timeline: 0s .. " << TextTable::num(total_s, 1) << "s, "
      << report.chunks.size() << " chunks, " << report.quality_switches
      << " switches, " << report.stalls.size() << " stalls\n";
  return out.str();
}

std::string render_flame(const SpanModel& model, int width) {
  std::ostringstream out;
  const double total_s = to_seconds(model.trace_end);
  if (model.spans.empty() || total_s <= 0.0) return "(no spans)\n";

  width = std::max(width, 20);
  constexpr int kGutter = 24;
  const auto col = [&](TimePoint t) {
    const int c =
        static_cast<int>(to_seconds(t) / total_s * (width - 1));
    return std::clamp(c, 0, width - 1);
  };
  char head[64];
  std::snprintf(head, sizeof head,
                "flame: %zu spans over %.3f s (%d cols, %.3f s/col)\n",
                model.spans.size(), total_s,
                width, total_s / width);
  out << head;

  const auto emit = [&](const std::string& label, const std::string& axis,
                        const std::string& tail) {
    char gut[kGutter + 1];
    std::snprintf(gut, sizeof gut, "%-*.*s", kGutter, kGutter,
                  label.c_str());
    out << gut << axis;
    if (!tail.empty()) out << "  " << tail;
    out << "\n";
  };

  for (const ChunkTimeline& t : model.spans) {
    const int a = col(t.start);
    const int b = std::max(a, col(t.end));

    // Span bar: '.' waiting, '=' while bytes flowed, '!' deadline column.
    std::string bar(static_cast<std::size_t>(width), ' ');
    for (int c = a; c <= b; ++c) bar[static_cast<std::size_t>(c)] = '.';
    if (t.have_bytes) {
      const int b0 = col(t.first_byte), b1 = col(t.last_byte);
      for (int c = b0; c <= b1 && c <= b; ++c) {
        bar[static_cast<std::size_t>(c)] = '=';
      }
    }
    if (t.deadline_s > 0.0) {
      const int dcol = col(t.start + seconds(t.deadline_s));
      if (dcol >= a && dcol <= b) bar[static_cast<std::size_t>(dcol)] = '!';
    }

    char label[64];
    std::snprintf(label, sizeof label, "span %llu %s %d L%d",
                  static_cast<unsigned long long>(t.span),
                  t.name && std::string_view(t.name) == "manifest"
                      ? "manifest"
                      : "chunk",
                  t.chunk, t.level);
    std::string tail = t.status ? t.status : "open";
    if (t.cause != MissCause::kNone) {
      tail += std::string(" <- ") + to_string(t.cause);
      if (t.dominant_fault_kind != nullptr) {
        tail += std::string(" (") + t.dominant_fault_kind + ")";
      }
    }
    emit(label, bar, tail);

    // HTTP attempts: one nested row, attempts in sequence with their
    // retry/backoff gaps ('~' between a timeout and the next request).
    if (!t.attempts.empty()) {
      std::string http(static_cast<std::size_t>(width), ' ');
      for (std::size_t k = 0; k < t.attempts.size(); ++k) {
        const HttpAttempt& at = t.attempts[k];
        const int s = col(at.start);
        const int e = std::max(s, col(at.end));
        for (int c = s; c <= e; ++c) http[static_cast<std::size_t>(c)] = '-';
        if (k + 1 < t.attempts.size()) {
          // Backoff gap runs from this attempt's close to the next send.
          const int n = col(t.attempts[k + 1].start);
          for (int c = e + 1; c < n; ++c) {
            http[static_cast<std::size_t>(c)] = '~';
          }
        }
        http[static_cast<std::size_t>(s)] =
            static_cast<char>('1' + std::min(at.attempt, 8));
        char end_glyph = '>';
        if (at.outcome != nullptr) {
          end_glyph = at.outcome[0] == 'r'   ? 'o'
                      : at.outcome[0] == 't' ? 'x'
                                             : 'g';
        }
        if (e > s || at.outcome != nullptr) {
          http[static_cast<std::size_t>(e)] = end_glyph;
        }
      }
      char http_label[32];
      std::snprintf(http_label, sizeof http_label, "  http x%zu",
                    t.attempts.size());
      emit(http_label, http, t.http_retries > 0
                                 ? std::to_string(t.http_retries) +
                                       " retries"
                                 : "");
    }

    // Per-path transmit activity (path-id order), each followed by its
    // subflow congestion row when the trace carried kSubflowUpdate
    // records (cwnd forward-filled between samples, glyph ∝ cwnd). The
    // samples are time-sorted, so the span's window is one binary search.
    struct PathRows {
      const std::vector<ActivityInterval>* activity = nullptr;
      std::span<const SubflowSample> subflow;
    };
    std::map<int, PathRows> paths;
    for (const auto& [path, intervals] : t.path_activity) {
      paths[path].activity = &intervals;
    }
    for (const auto& [path, samples] : model.subflow) {
      const auto lo = std::lower_bound(
          samples.begin(), samples.end(), t.start,
          [](const SubflowSample& s, TimePoint at) { return s.at < at; });
      const auto hi = std::upper_bound(
          lo, samples.end(), t.end,
          [](TimePoint at, const SubflowSample& s) { return at < s.at; });
      if (lo != hi) paths[path].subflow = std::span(lo, hi);
    }
    for (const auto& [path, rows] : paths) {
      if (rows.activity != nullptr) {
        std::string act(static_cast<std::size_t>(width), ' ');
        for (const ActivityInterval& iv : *rows.activity) {
          const int s = col(iv.first);
          const int e = std::max(s, col(iv.second));
          for (int c = s; c <= e; ++c) {
            act[static_cast<std::size_t>(c)] = '=';
          }
        }
        // The same deliveries fill path_activity and bytes_by_path.
        emit("  path " + std::to_string(path), act,
             std::to_string(static_cast<long long>(t.bytes_by_path.at(path))) +
                 " B");
      }
      const std::span<const SubflowSample> samples = rows.subflow;
      if (samples.empty()) continue;
      double cwnd_min = samples[0].cwnd, cwnd_max = samples[0].cwnd;
      double rtt_min = samples[0].srtt_ms, rtt_max = samples[0].srtt_ms;
      for (const SubflowSample& s : samples) {
        cwnd_min = std::min(cwnd_min, s.cwnd);
        cwnd_max = std::max(cwnd_max, s.cwnd);
        rtt_min = std::min(rtt_min, s.srtt_ms);
        rtt_max = std::max(rtt_max, s.srtt_ms);
      }
      static constexpr char kRamp[] = " .:-=+*#";
      const auto glyph = [&](double cwnd) {
        const int g =
            cwnd_max > 0.0
                ? static_cast<int>(cwnd / cwnd_max * 7.0)
                : 0;
        return kRamp[std::clamp(g, 1, 7)];
      };
      std::string sf(static_cast<std::size_t>(width), ' ');
      for (std::size_t k = 0; k < samples.size(); ++k) {
        const int s = col(samples[k].at);
        const int e = k + 1 < samples.size()
                          ? std::max(s, col(samples[k + 1].at) - 1)
                          : s;
        for (int c = s; c <= e; ++c) {
          sf[static_cast<std::size_t>(c)] = glyph(samples[k].cwnd);
        }
      }
      char sf_tail[96];
      std::snprintf(sf_tail, sizeof sf_tail,
                    "cwnd %.0f..%.0f rtt %.0f..%.0f ms", cwnd_min,
                    cwnd_max, rtt_min, rtt_max);
      emit("  sf " + std::to_string(path), sf, sf_tail);
    }
  }
  return out.str();
}

std::string render_path_summary(const AnalysisReport& report) {
  TextTable table({"path", "data MB (down)", "wire MB (down)", "wire MB (up)",
                   "packets", "drops", "retx"});
  for (const auto& p : report.paths) {
    table.add_row({std::to_string(p.path_id),
                   TextTable::num(static_cast<double>(p.data_bytes_down) / 1e6),
                   TextTable::num(static_cast<double>(p.wire_bytes_down) / 1e6),
                   TextTable::num(static_cast<double>(p.wire_bytes_up) / 1e6),
                   std::to_string(p.packets), std::to_string(p.drops),
                   std::to_string(p.retransmissions)});
  }
  return table.render();
}

}  // namespace mpdash
