#include "exp/scenario.h"

#include "trace/locations.h"

namespace mpdash {

ScenarioConfig constant_scenario(DataRate wifi_mbps, DataRate lte_mbps) {
  ScenarioConfig cfg;
  cfg.wifi_down = BandwidthTrace::constant(wifi_mbps);
  cfg.lte_down = BandwidthTrace::constant(lte_mbps);
  return cfg;
}

ScenarioConfig location_scenario(const LocationProfile& loc,
                                 Duration horizon) {
  ScenarioConfig cfg;
  cfg.wifi_down = loc.wifi_trace(horizon);
  cfg.lte_down = loc.lte_trace(horizon);
  cfg.wifi_rtt = loc.wifi_rtt;
  cfg.lte_rtt = loc.lte_rtt;
  return cfg;
}

Scenario::Scenario(ScenarioConfig config) : config_(std::move(config)) {
  // Path `id` runs over downlink 2·id and uplink 2·id + 1. Each link draws
  // loss from its own stream, so loss on one link never perturbs another's
  // pattern. Bursty loss hits the downlink only (the direction
  // interference hurts most); uplinks keep i.i.d.-only loss.
  auto add_path = [this](int id, const char* name, InterfaceKind kind,
                         const BandwidthTrace& down_rate, DataRate up_rate,
                         Duration rtt,
                         const std::optional<GilbertElliottConfig>& ge,
                         TokenBucketShaper* down_shaper) {
    const std::uint64_t seed = derive_stream_seed(config_.seed, name);
    for (const bool down : {true, false}) {
      LinkConfig lc;
      lc.id = 2 * id + (down ? 0 : 1);
      lc.name = std::string(name) + (down ? ".down" : ".up");
      lc.rate = down ? down_rate : BandwidthTrace::constant(up_rate);
      lc.propagation_delay = rtt / 2;
      lc.queue_capacity = config_.queue_capacity;
      lc.random_loss = config_.random_loss;
      if (down) lc.ge_loss = ge;
      lc.loss_seed = derive_stream_seed(seed, down ? ".down" : ".up");
      lc.discipline = config_.discipline;
      lc.fq_quantum = config_.fq_quantum;
      links_.push_back(std::make_unique<Link>(loop_, std::move(lc)));
    }
    PathDescription desc;
    desc.id = id;
    desc.name = name;
    desc.kind = kind;
    desc.unit_cost = config_.policy.cost_for(kind);
    desc.metered = kind == InterfaceKind::kCellular;
    paths_.emplace_back(std::move(desc), *links_[2 * id],
                        *links_[2 * id + 1], 0, down_shaper);
  };
  add_path(kWifiPathId, "wifi", InterfaceKind::kWifi, config_.wifi_down,
           config_.wifi_up, config_.wifi_rtt, config_.wifi_ge_loss, nullptr);
  if (config_.lte_throttle) {
    ShaperConfig shaper = *config_.lte_throttle;
    if (shaper.name == "shaper") shaper.name = "lte";  // metric key per path
    lte_shaper_ = std::make_unique<TokenBucketShaper>(loop_, shaper);
    lte_shaper_->set_forward_handler([this](Packet p) {
      links_[2 * kCellularPathId]->send(std::move(p));
    });
  }
  add_path(kCellularPathId, "lte", InterfaceKind::kCellular, config_.lte_down,
           config_.lte_up, config_.lte_rtt, config_.lte_ge_loss,
           lte_shaper_.get());
}

std::vector<NetPath*> Scenario::paths() {
  std::vector<NetPath*> out;
  for (NetPath& p : paths_) out.push_back(&p);
  return out;
}

void Scenario::set_telemetry(Telemetry* telemetry) {
  loop_.set_telemetry(telemetry);
  for (auto& link : links_) link->set_telemetry(telemetry);
  if (lte_shaper_) lte_shaper_->set_telemetry(telemetry);
}

Bytes Scenario::wifi_bytes() const {
  return links_[0]->delivered_bytes() + links_[1]->delivered_bytes();
}

Bytes Scenario::cellular_bytes() const {
  return links_[2]->delivered_bytes() + links_[3]->delivered_bytes();
}

}  // namespace mpdash
