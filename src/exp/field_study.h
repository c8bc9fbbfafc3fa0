#pragma once
// The §7.3.3 field study: at every location, each adaptation algorithm
// streams one video under vanilla MPTCP (the baseline) and under each
// configured MP-DASH scheme, measured against that baseline. Figures 9/10,
// Table 5 and `mpdash_sim sweep` all run it as one Campaign, one run per
// cell, so every output is bitwise identical for any job count.

#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dash/video.h"
#include "exp/session.h"
#include "runner/campaign.h"
#include "trace/locations.h"

namespace mpdash {

struct FieldStudyConfig {
  std::vector<LocationProfile> locations = field_study_locations();
  std::vector<std::string> algorithms = {"festive", "bba"};
  // Run after each algorithm's baseline.
  std::vector<Scheme> schemes = {Scheme::kMpDashRate,
                                 Scheme::kMpDashDuration};
  double alpha = SessionConfig{}.alpha;
  std::string mptcp_scheduler = SessionConfig{}.mptcp_scheduler;
  int jobs = 0;  // 0 → resolve_jobs()
  // Instrument each cell into its run's telemetry and fill its metrics or
  // attribution series; untouched, a cell runs with no telemetry.
  bool metrics = false;
  bool attribution = false;
};

// "baseline", "rate", "duration" or "wifi-only": the name in cell keys
// ("<location>/<algorithm>/<label>") and in the figures' legends.
inline const char* scheme_label(Scheme scheme) {
  const char* name = to_string(scheme);
  return std::strncmp(name, "mpdash-", 7) == 0 ? name + 7 : name;
}

// (baseline - value) / baseline; 0 without a baseline.
inline double saving(double baseline, double value) {
  return baseline > 0.0 ? (baseline - value) / baseline : 0.0;
}

struct FieldStudyCell {
  std::string algorithm;
  Scheme scheme = Scheme::kBaseline;
  SessionResult result;
  // MetricsSnapshot::to_json() of the run's telemetry at session end (a
  // raw snapshot views the names of a registry that dies with the run).
  std::string metrics;
  std::string attribution;  // kAttribSeriesHeader rows, 10 s buckets
};

struct LocationOutcome {
  LocationProfile location;
  // Per algorithm: its baseline, then the configured schemes.
  std::vector<FieldStudyCell> cells;

  const SessionResult& at(std::string_view algo, Scheme scheme) const {
    for (const FieldStudyCell& c : cells) {
      if (c.algorithm == algo && c.scheme == scheme) return c.result;
    }
    throw std::out_of_range("no field-study cell " + std::string(algo));
  }
  // saving() against the same algorithm's baseline; a positive bitrate
  // reduction is a lower steady-state bitrate than the baseline's.
  double cell_saving(std::string_view algo, Scheme scheme) const {
    return saving(static_cast<double>(at(algo, Scheme::kBaseline).cell_bytes),
                  static_cast<double>(at(algo, scheme).cell_bytes));
  }
  double energy_saving(std::string_view algo, Scheme scheme) const {
    return saving(at(algo, Scheme::kBaseline).energy_j(),
                  at(algo, scheme).energy_j());
  }
  double bitrate_reduction(std::string_view algo, Scheme scheme) const {
    return saving(at(algo, Scheme::kBaseline).steady_avg_bitrate_mbps,
                  at(algo, scheme).steady_avg_bitrate_mbps);
  }
};

struct FieldStudyResult {
  // Config order. A failed cell keeps a default result; the campaign's
  // progress reporter named it on stderr and counted it in stats.failures.
  std::vector<LocationOutcome> locations;
  CampaignStats stats;
};

FieldStudyResult run_field_study(const FieldStudyConfig& config,
                                 const Video& video);

}  // namespace mpdash
