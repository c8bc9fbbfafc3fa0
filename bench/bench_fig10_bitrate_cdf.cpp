// Figure 10: CDF of playback bitrate reduction across the field-study
// locations — MP-DASH must deliver its savings with (near) zero QoE cost.
// The paper: no reduction for ~83 % of experiments; mean reduction among
// the rest only 2.5 %; negative values (bitrate increases) occur.

#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

int main(int argc, char** argv) {
  const int jobs = parse_jobs(argc, argv);
  print_header("Figure 10", "playback bitrate reduction CDF");

  const auto outcomes = bench_field_study(field_study_locations(), jobs);

  std::vector<std::pair<std::string,
                        std::vector<std::pair<double, double>>>> series;
  int no_reduction = 0, total = 0, stall_regressions = 0;
  OnlineStats reductions_when_any;
  for (const char* algo : {"festive", "bba"}) {
    for (const Scheme scheme :
         {Scheme::kMpDashRate, Scheme::kMpDashDuration}) {
      std::vector<double> red;
      for (const auto& o : outcomes) {
        const double r = o.bitrate_reduction(algo, scheme);
        red.push_back(r * 100.0);
        ++total;
        if (r <= 0.005) {
          ++no_reduction;
        } else {
          reductions_when_any.add(r * 100.0);
        }
        if (o.at(algo, scheme).stalls > o.at(algo, Scheme::kBaseline).stalls) {
          ++stall_regressions;
        }
      }
      std::vector<std::pair<double, double>> cdf_pts;
      for (const auto& [v, f] : empirical_cdf(red)) cdf_pts.emplace_back(v, f);
      series.emplace_back(std::string(algo) + "-" + scheme_label(scheme),
                          std::move(cdf_pts));
    }
  }

  std::printf("%s\n", ascii_plot(series, 72, 16,
                                 "playback bitrate reduction (%)", "CDF")
                          .c_str());
  std::printf("experiments with no meaningful reduction: %d / %d (%.1f%%)\n",
              no_reduction, total, 100.0 * no_reduction / total);
  std::printf("mean reduction among the rest: %.1f%%\n",
              reductions_when_any.count() ? reductions_when_any.mean() : 0.0);
  std::printf("experiments where MP-DASH added stalls: %d\n",
              stall_regressions);
  std::printf("paper shape: ~83%% of experiments show no reduction; the "
              "rest average ~2.5%%; negative reduction (bitrate increase) "
              "exists.\n");
  return 0;
}
