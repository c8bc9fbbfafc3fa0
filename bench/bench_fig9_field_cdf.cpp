// Figure 9: CDF of cellular data savings brought by MP-DASH across all 33
// field-study locations, for FESTIVE-Rate, FESTIVE-Duration, BBA-Rate and
// BBA-Duration; plus the radio-energy savings percentiles the paper
// reports in prose (25th/50th/75th).

#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

int main(int argc, char** argv) {
  const int jobs = parse_jobs(argc, argv);
  print_header("Figure 9", "cellular savings CDF across 33 locations");

  const auto outcomes = bench_field_study(field_study_locations(), jobs);

  std::vector<std::pair<std::string,
                        std::vector<std::pair<double, double>>>> series;
  std::vector<double> all_savings, all_energy;
  for (const char* algo : {"festive", "bba"}) {
    for (const Scheme scheme :
         {Scheme::kMpDashRate, Scheme::kMpDashDuration}) {
      std::vector<double> savings;
      for (const auto& o : outcomes) {
        savings.push_back(o.cell_saving(algo, scheme));
        all_savings.push_back(savings.back());
        all_energy.push_back(o.energy_saving(algo, scheme));
      }
      std::vector<std::pair<double, double>> cdf_pts;
      for (const auto& [v, f] : empirical_cdf(savings)) {
        cdf_pts.emplace_back(v * 100.0, f);
      }
      series.emplace_back(std::string(algo) + "-" + scheme_label(scheme),
                          std::move(cdf_pts));
    }
  }

  std::printf("%s\n", ascii_plot(series, 72, 16,
                                 "cellular data saving (%)", "CDF")
                          .c_str());
  print_cdf("cellular savings across all experiments:", all_savings);
  print_cdf("radio-energy savings across all experiments:", all_energy);
  std::printf(
      "paper shape: cellular savings p25/p50/p75 ~ 48/59/82%%; energy\n"
      "savings p25/p50/p75 ~ 7.7/17/53%%; FESTIVE saves more than BBA.\n");

  // FESTIVE vs BBA medians.
  for (const char* algo : {"festive", "bba"}) {
    std::vector<double> s;
    for (const auto& o : outcomes) {
      s.push_back(o.cell_saving(algo, Scheme::kMpDashRate));
    }
    std::printf("median cellular saving, %s-rate: %.0f%%\n", algo,
                percentile(s, 50) * 100);
  }
  return 0;
}
