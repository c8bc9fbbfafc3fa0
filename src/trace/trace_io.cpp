#include "trace/trace_io.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/csv.h"

namespace mpdash {

std::string trace_to_csv(const BandwidthTrace& trace) {
  CsvWriter csv({"time_s", "rate_mbps"});
  char a[32], b[32];
  for (const RatePoint& p : trace.points()) {
    std::snprintf(a, sizeof(a), "%.6f", to_seconds(p.start));
    std::snprintf(b, sizeof(b), "%.6f", p.rate.as_mbps());
    csv.add_row({a, b});
  }
  return csv.str();
}

BandwidthTrace trace_from_csv(const std::string& csv) {
  std::vector<RatePoint> pts;
  for (const auto& row : parse_csv(csv)) {
    if (row.size() < 2) {
      throw std::invalid_argument("trace CSV row needs 2 cells");
    }
    if (row[0] == "time_s") continue;  // header
    char* end = nullptr;
    const double t = std::strtod(row[0].c_str(), &end);
    if (end == row[0].c_str()) {
      throw std::invalid_argument("bad time cell: " + row[0]);
    }
    const double mbps = std::strtod(row[1].c_str(), &end);
    if (end == row[1].c_str()) {
      throw std::invalid_argument("bad rate cell: " + row[1]);
    }
    pts.push_back({seconds(t), DataRate::mbps(mbps)});
  }
  return BandwidthTrace(std::move(pts));
}

BandwidthTrace load_trace(const std::string& path) {
  std::string text;
  if (!read_file(path, &text)) {
    throw std::runtime_error("cannot read trace file: " + path);
  }
  return trace_from_csv(text);
}

}  // namespace mpdash
