// Field-study sweep: streams a video at every location in the built-in
// 33-location profile database (64/15/21 % scenario mix, Table 5's
// measured locations included) and reports per-location and aggregate
// cellular savings for MP-DASH vs vanilla MPTCP.
//
// The 66 sessions run as one Campaign sharded over a thread pool; the
// report is assembled in location order afterwards, so the output is
// identical for any --jobs value.
//
// Usage: field_study [algorithm] [--jobs N]   (default: festive, N = cores)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dash/video.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "runner/campaign.h"
#include "trace/locations.h"
#include "util/stats.h"
#include "util/table.h"

using namespace mpdash;

int main(int argc, char** argv) {
  std::string algo = "festive";
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") != 0) {
      algo = argv[i];
    } else if (i + 1 == argc || !parse_jobs_value(argv[++i], &jobs)) {
      std::fprintf(stderr, "usage: %s [algorithm] [--jobs N]\n", argv[0]);
      return 2;
    }
  }
  // A quarter-length video keeps the 66-session sweep snappy for an
  // example; the bench binaries run the full-length version.
  const Video video("Big Buck Bunny (clip)", seconds(4.0), 38,
                    {DataRate::mbps(0.58), DataRate::mbps(1.01),
                     DataRate::mbps(1.47), DataRate::mbps(2.41),
                     DataRate::mbps(3.94)},
                    0.12, 42);
  const Duration horizon = video.total_duration() + seconds(120.0);

  const auto& locations = field_study_locations();
  struct Pair {
    SessionResult base;
    SessionResult mpd;
  };
  Campaign<Pair> campaign("field-study-example");
  for (const auto& loc : locations) {
    campaign.add(loc.name + "/" + algo, [&loc, &video, &algo,
                                         horizon](RunContext&) {
      const ScenarioConfig net = location_scenario(loc, horizon);
      SessionConfig cfg;
      cfg.adaptation = algo;
      Pair pair;
      cfg.scheme = Scheme::kBaseline;
      Scenario base_sc(net);
      pair.base = run_streaming_session(base_sc, video, cfg);
      cfg.scheme = Scheme::kMpDashRate;
      Scenario mpd_sc(net);
      pair.mpd = run_streaming_session(mpd_sc, video, cfg);
      return pair;
    });
  }
  CampaignOptions opts;
  opts.jobs = jobs;
  const auto res = campaign.run(opts);
  res.require_all_ok();

  TextTable table({"location", "scenario", "WiFi Mbps", "cell saving",
                   "bitrate delta", "stalls"});
  std::vector<double> savings;
  for (std::size_t i = 0; i < locations.size(); ++i) {
    const auto& loc = locations[i];
    const Pair& pair = res.results[i];
    const double saving =
        pair.base.cell_bytes > 0
            ? 1.0 - static_cast<double>(pair.mpd.cell_bytes) /
                        static_cast<double>(pair.base.cell_bytes)
            : 0.0;
    savings.push_back(saving);
    table.add_row({loc.name, std::to_string(static_cast<int>(loc.scenario)),
                   TextTable::num(loc.wifi_mean.as_mbps(), 1),
                   TextTable::pct(saving, 1),
                   TextTable::num(pair.mpd.steady_avg_bitrate_mbps -
                                      pair.base.steady_avg_bitrate_mbps,
                                  2),
                   std::to_string(pair.mpd.stalls)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("cellular savings: p25 %.0f%%, median %.0f%%, p75 %.0f%%\n",
              percentile(savings, 25) * 100, percentile(savings, 50) * 100,
              percentile(savings, 75) * 100);
  std::printf("campaign: %d runs on %d workers, %.2fs wall (serial est "
              "%.2fs, speedup %.2fx)\n",
              res.stats.runs, res.stats.jobs, res.stats.wall_s,
              res.stats.run_wall_sum_s, res.stats.speedup());
  return 0;
}
