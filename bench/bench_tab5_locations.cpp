// Table 5: per-location cellular-byte and radio-energy savings at the
// seven representative locations the paper names (grouped by WiFi
// scenario), for FESTIVE and BBA under rate- and duration-based deadlines.

#include "bench_common.h"

using namespace mpdash;
using namespace mpdash::bench;

int main(int argc, char** argv) {
  const int jobs = parse_jobs(argc, argv);
  print_header("Table 5", "savings at representative locations");

  const auto outcomes = bench_field_study(table5_locations(), jobs);

  TextTable table({"location", "WiFi BW/RTT", "LTE BW/RTT", "FEST/B rate",
                   "FEST/B dur", "FEST/E rate", "FEST/E dur", "BBA/B rate",
                   "BBA/B dur", "BBA/E rate", "BBA/E dur"});
  for (const auto& o : outcomes) {
    const LocationProfile& loc = o.location;
    auto pct = [](double v) { return TextTable::pct(v, 1); };
    table.add_row(
        {loc.name,
         TextTable::num(loc.wifi_mean.as_mbps(), 2) + "/" +
             TextTable::num(to_milliseconds(loc.wifi_rtt), 1),
         TextTable::num(loc.lte_mean.as_mbps(), 2) + "/" +
             TextTable::num(to_milliseconds(loc.lte_rtt), 1),
         pct(o.cell_saving("festive", Scheme::kMpDashRate)),
         pct(o.cell_saving("festive", Scheme::kMpDashDuration)),
         pct(o.energy_saving("festive", Scheme::kMpDashRate)),
         pct(o.energy_saving("festive", Scheme::kMpDashDuration)),
         pct(o.cell_saving("bba", Scheme::kMpDashRate)),
         pct(o.cell_saving("bba", Scheme::kMpDashDuration)),
         pct(o.energy_saving("bba", Scheme::kMpDashRate)),
         pct(o.energy_saving("bba", Scheme::kMpDashDuration))});
  }
  std::printf("%s", table.render().c_str());
  std::printf("(B = cellular-byte saving, E = radio-energy saving, vs the "
              "vanilla-MPTCP baseline)\n\n");

  // Scenario-3 sanity: the strongest-WiFi locations should show the
  // largest savings (paper: savings grow with WiFi throughput).
  const auto& weakest = outcomes.front();   // Hotel Hi, 2.92 Mbps
  const auto& strongest = outcomes.back();  // Elec. Store, 28.4 Mbps
  std::printf("savings grow with WiFi bandwidth: %s %.0f%% -> %s %.0f%% "
              "(FESTIVE-rate)\n",
              weakest.location.name.c_str(),
              weakest.cell_saving("festive", Scheme::kMpDashRate) * 100,
              strongest.location.name.c_str(),
              strongest.cell_saving("festive", Scheme::kMpDashRate) * 100);
  std::printf("paper shape: savings increase from scenario 1 (weak WiFi) to "
              "scenario 3 (strong WiFi, up to ~99%%).\n");
  return 0;
}
