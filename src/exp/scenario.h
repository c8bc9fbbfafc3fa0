#pragma once
// Network scenario construction: WiFi + LTE path pair (or WiFi alone)
// with configurable bandwidth traces, RTTs, and the optional cellular
// throttle of Table 4. One topology serves a single session (flow 0) and
// a fleet (one flow per tenant on the same links).

#include <memory>
#include <optional>
#include <vector>

#include "core/policy.h"
#include "link/path.h"
#include "sim/event_loop.h"

namespace mpdash {

struct LocationProfile;

inline constexpr int kWifiPathId = 0;
inline constexpr int kCellularPathId = 1;

struct ScenarioConfig {
  BandwidthTrace wifi_down;
  BandwidthTrace lte_down;
  // Uplinks default to generous fixed rates (requests + acks only).
  DataRate wifi_up = DataRate::mbps(10.0);
  DataRate lte_up = DataRate::mbps(8.0);
  Duration wifi_rtt = milliseconds(50);   // paper's Dummynet setting
  Duration lte_rtt = milliseconds(55);    // commercial LTE, 50-60 ms
  Bytes queue_capacity = 192 * 1000;
  double random_loss = 0.0;  // extra i.i.d. loss on every link
  // Bursty downlink loss (Gilbert–Elliott); per interface so a noisy WiFi
  // AP can coexist with a clean LTE carrier.
  std::optional<GilbertElliottConfig> wifi_ge_loss;
  std::optional<GilbertElliottConfig> lte_ge_loss;
  // Scenario seed. Each link draws loss from its own stream derived as
  // derive_stream_seed(seed, "wifi"/"lte" + ".down"/".up"), so loss on one
  // link never perturbs another's pattern.
  std::uint64_t seed = 1;
  std::optional<ShaperConfig> lte_throttle;  // Table 4 strawman
  PathPolicy policy = prefer_wifi_policy();
  bool wifi_only = false;  // single-path baseline (Figure 11 bottom)
  // How every link arbitrates between the flows sharing it (fleets).
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  Bytes fq_quantum = 1500;
};

// Convenience constructors for common setups.
ScenarioConfig constant_scenario(DataRate wifi_mbps, DataRate lte_mbps);
// A field-study location's WiFi and LTE traces over `horizon`, and RTTs.
ScenarioConfig location_scenario(const LocationProfile& loc,
                                 Duration horizon);

// Owns the event loop, the links and the LTE shaper for one experiment
// run. Path i has downlink id 2·i and uplink id 2·i + 1, named
// "<path>.down" / "<path>.up".
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  Scenario(const Scenario&) = delete;  // links and shaper hold its address
  Scenario& operator=(const Scenario&) = delete;

  EventLoop& loop() { return loop_; }
  // Flow 0's views of the paths, WiFi first: a single session's paths.
  // A fleet runs tenant i on for_flow(i) copies of them.
  std::vector<NetPath*> paths();
  NetPath& wifi() { return paths_.front(); }
  NetPath* cellular() { return paths_.size() > 1 ? &paths_[1] : nullptr; }
  const ScenarioConfig& config() const { return config_; }

  // Wires telemetry into the event loop and every link/shaper. nullptr
  // detaches.
  void set_telemetry(Telemetry* telemetry);

  // Bytes that crossed each interface (both directions, delivered, every
  // flow).
  Bytes wifi_bytes() const;
  Bytes cellular_bytes() const;

 private:
  ScenarioConfig config_;
  EventLoop loop_;
  std::vector<std::unique_ptr<Link>> links_;  // indexed by link id
  std::unique_ptr<TokenBucketShaper> lte_shaper_;
  std::vector<NetPath> paths_;
};

}  // namespace mpdash
