// Figure 7 (a/b/c): controlled experiments — FESTIVE, BBA, and BBA-C under
// three WiFi/LTE bandwidth combinations, each with vanilla MPTCP
// ("Baseline"), MP-DASH with duration-based deadlines, and MP-DASH with
// rate-based deadlines. Metrics: bytes over LTE and radio energy.

#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

int main(int argc, char** argv) {
  const int jobs = parse_jobs(argc, argv);
  print_header("Figure 7", "FESTIVE / BBA / BBA-C under three conditions");

  const Video video = bench_video();
  struct Net {
    const char* name;
    double wifi, lte;
  };
  const Net nets[] = {{"W3.8/L3.0", 3.8, 3.0},
                      {"W2.8/L3.0", 2.8, 3.0},
                      {"W2.2/L1.2", 2.2, 1.2}};
  const char* const algos[] = {"festive", "bba", "bba-c"};
  const Scheme schemes[] = {Scheme::kBaseline, Scheme::kMpDashDuration,
                            Scheme::kMpDashRate};

  // 3 algorithms x 3 networks x 3 schemes, one campaign run per cell.
  struct Cell {
    SessionResult result;
    std::string bench_json;
  };
  Campaign<Cell> campaign("figure-7");
  for (const char* algo : algos) {
    for (const Net& net : nets) {
      for (Scheme scheme : schemes) {
        const std::string algo_name = algo;
        campaign.add(
            algo_name + "/" + net.name + "/" + to_string(scheme),
            [&video, net, scheme, algo_name](RunContext&) {
              Cell cell;
              cell.result = run_scheme(
                  constant_scenario(DataRate::mbps(net.wifi),
                                    DataRate::mbps(net.lte)),
                  video, scheme, algo_name, nullptr, &cell.bench_json);
              return cell;
            });
      }
    }
  }
  CampaignOptions opts;
  opts.jobs = jobs;
  const auto res = campaign.run(opts);
  res.require_all_ok();
  std::string json_lines;
  for (const Cell& cell : res.results) json_lines += cell.bench_json;
  append_bench_lines(json_lines);
  append_campaign_summary(res.stats);

  std::size_t next = 0;
  for (const char* algo : algos) {
    std::printf("--- Figure 7%c: %s ---\n",
                algo == std::string("festive") ? 'a'
                : algo == std::string("bba")   ? 'b'
                                               : 'c',
                algo);
    TextTable table({"network", "scheme", "Cell MB", "energy J", "avg Mbps",
                     "stalls", "cell sav", "energy sav"});
    for (const Net& net : nets) {
      SessionResult base;
      for (Scheme scheme : schemes) {
        const SessionResult& cell = res.results[next++].result;
        if (scheme == Scheme::kBaseline) base = cell;
        table.add_row(
            {net.name,
             scheme == Scheme::kBaseline       ? "Baseline"
             : scheme == Scheme::kMpDashDuration ? "Duration"
                                                 : "Rate",
             mb(cell.cell_bytes), TextTable::num(cell.energy_j(), 0),
             TextTable::num(cell.steady_avg_bitrate_mbps),
             std::to_string(cell.stalls),
             scheme == Scheme::kBaseline
                 ? "-"
                 : TextTable::pct(
                       saving(static_cast<double>(base.cell_bytes),
                              static_cast<double>(cell.cell_bytes)),
                       0),
             scheme == Scheme::kBaseline
                 ? "-"
                 : TextTable::pct(saving(base.energy_j(), cell.energy_j()),
                                  0)});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf(
      "paper shape: big savings for FESTIVE (rate >= duration); BBA saves\n"
      "less (more aggressive) and nothing at W2.2/L1.2; BBA-C unlocks\n"
      "savings there by locking the sustainable level.\n");
  return 0;
}
