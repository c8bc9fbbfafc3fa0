#pragma once
// Shared field-study sweep for Figures 9/10 and Table 5: every location in
// the 33-location profile DB, streaming Big Buck Bunny under six schemes —
// FESTIVE and BBA, each with vanilla MPTCP, MP-DASH rate-based, and
// MP-DASH duration-based deadlines (the paper's §7.3.3 methodology).

#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/csv.h"

namespace mpdash::bench {

struct LocationOutcome {
  LocationProfile location;  // by value: caller vectors may be temporaries
  // Keyed by "<algo>/<scheme>", e.g. "festive/rate".
  std::map<std::string, SessionResult> runs;

  const SessionResult& at(const std::string& key) const {
    return runs.at(key);
  }
  double cell_saving(const std::string& algo,
                     const std::string& scheme) const {
    const auto& base = at(algo + "/baseline");
    const auto& res = at(algo + "/" + scheme);
    return saving(static_cast<double>(base.cell_bytes),
                  static_cast<double>(res.cell_bytes));
  }
  double energy_saving(const std::string& algo,
                       const std::string& scheme) const {
    const auto& base = at(algo + "/baseline");
    const auto& res = at(algo + "/" + scheme);
    return saving(base.energy_j(), res.energy_j());
  }
  // Positive = MP-DASH played at a lower bitrate than the baseline.
  double bitrate_reduction(const std::string& algo,
                           const std::string& scheme) const {
    const auto& base = at(algo + "/baseline");
    const auto& res = at(algo + "/" + scheme);
    if (base.steady_avg_bitrate_mbps <= 0.0) return 0.0;
    return (base.steady_avg_bitrate_mbps - res.steady_avg_bitrate_mbps) /
           base.steady_avg_bitrate_mbps;
  }
};

// Executes the full grid (|locations| × 2 algorithms × 3 schemes) as one
// Campaign: one RunSpec per cell, sharded over `jobs` workers (0 = auto).
// Results are reassembled in location order after the pool drains, so the
// returned vector — and everything aggregated from it — is bitwise
// identical for any job count.
inline std::vector<LocationOutcome> run_field_study(
    const std::vector<LocationProfile>& locations, int jobs = 0) {
  const Video video = bench_video();
  const Duration horizon = video.total_duration() + seconds(120.0);

  // Scenario configs are built once, serially, and shared read-only with
  // the workers (trace expansion is the expensive deterministic part).
  std::vector<ScenarioConfig> nets;
  nets.reserve(locations.size());
  for (const auto& loc : locations) {
    nets.push_back(location_scenario(loc, horizon));
  }

  struct Cell {
    SessionResult result;
    std::string bench_json;
    std::string attrib;  // kAttribSeriesHeader rows (MPDASH_BENCH_ATTRIB)
  };
  const char* attrib_path = bench_attrib_path();
  static const std::vector<std::pair<std::string, Scheme>> kSchemes = {
      {"baseline", Scheme::kBaseline},
      {"rate", Scheme::kMpDashRate},
      {"duration", Scheme::kMpDashDuration}};

  Campaign<Cell> campaign("field-study");
  struct Slot {
    std::size_t location;
    std::string run_key;  // "<algo>/<scheme>" within the LocationOutcome
  };
  std::vector<Slot> slots;
  for (std::size_t li = 0; li < locations.size(); ++li) {
    for (const char* algo : {"festive", "bba"}) {
      for (const auto& [key, scheme] : kSchemes) {
        const std::string run_key = std::string(algo) + "/" + key;
        const std::string cell_name = locations[li].name + "/" + run_key;
        const ScenarioConfig& net = nets[li];
        const std::string algo_name = algo;
        const Scheme sch = scheme;
        campaign.add(cell_name, [&net, &video, sch, algo_name, cell_name,
                                 attrib_path](RunContext&) {
          Cell cell;
          cell.result = run_scheme(
              net, video, sch, algo_name, false, &cell.bench_json,
              attrib_path != nullptr ? &cell.attrib : nullptr, cell_name);
          return cell;
        });
        slots.push_back({li, run_key});
      }
    }
  }

  CampaignOptions opts;
  opts.jobs = jobs;
  auto res = campaign.run(opts);
  res.require_all_ok();

  std::string json_lines;
  for (const Cell& cell : res.results) json_lines += cell.bench_json;
  append_bench_lines(json_lines);
  append_campaign_summary(res.stats);

  if (attrib_path != nullptr) {
    // Add-order assembly, same contract as the JSON lines: the attribution
    // artifact is bitwise identical for any job count.
    std::string rows(kAttribSeriesHeader);
    for (const Cell& cell : res.results) rows += cell.attrib;
    // stderr, like the progress lines: stdout must stay bitwise identical
    // across runs that write to differently named files.
    if (write_file(attrib_path, rows)) {
      std::fprintf(stderr, "attribution series written to %s\n", attrib_path);
    } else {
      std::fprintf(stderr, "cannot write %s\n", attrib_path);
    }
  }

  std::vector<LocationOutcome> out(locations.size());
  for (std::size_t li = 0; li < locations.size(); ++li) {
    out[li].location = locations[li];
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    out[slots[i].location].runs.emplace(slots[i].run_key,
                                        std::move(res.results[i].result));
  }
  return out;
}

}  // namespace mpdash::bench
