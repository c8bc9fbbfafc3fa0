#pragma once
// User-facing multipath policies (paper §3.2, "Interface for the User").
//
// A policy assigns each interface kind a unit-data cost; the deadline
// scheduler feeds data cheapest-first. The two built-in policies are the
// prototype's prefer-WiFi (the common case) and prefer-cellular (useful
// under mobility); arbitrary cost profiles plug in without touching the
// DASH adapter, exactly as the paper argues.

#include <string>

#include "link/path.h"

namespace mpdash {

struct PathPolicy {
  std::string name;
  double wifi_cost = 0.0;
  double cellular_cost = 1.0;
  double other_cost = 0.5;

  double cost_for(InterfaceKind kind) const {
    switch (kind) {
      case InterfaceKind::kWifi: return wifi_cost;
      case InterfaceKind::kCellular: return cellular_cost;
      default: return other_cost;
    }
  }
};

inline PathPolicy prefer_wifi_policy() {
  return PathPolicy{"prefer-wifi", 0.0, 1.0, 0.5};
}

inline PathPolicy prefer_cellular_policy() {
  return PathPolicy{"prefer-cellular", 1.0, 0.0, 0.5};
}

}  // namespace mpdash
