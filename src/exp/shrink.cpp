#include "exp/shrink.h"

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/campaign.h"

namespace mpdash {

std::string violation_kind(const std::string& violation) {
  // A fleet hoists each tenant's violations as "session <i>: <violation>";
  // which tenant failed is run-specific detail, like the counts.
  constexpr std::string_view kTenant = "session ";
  std::string_view v = violation;
  if (v.rfind(kTenant, 0) == 0) {
    std::size_t end = kTenant.size();
    while (end < v.size() && v[end] >= '0' && v[end] <= '9') ++end;
    if (end > kTenant.size() && v.substr(end, 2) == ": ") {
      v.remove_prefix(end + 2);
    }
  }
  struct KindRule {
    const char* needle;
    const char* key;
  };
  // Prefix rules: the stable head of each invariant-failure message (the
  // tail carries run-specific counts the shrinker must not pin).
  static constexpr KindRule kPrefix[] = {
      {"session hung", "session hung"},
      {"manifest failed", "manifest failed"},
      {"chunk accounting", "chunk accounting"},
      {"byte accounting server->client", "byte accounting server->client"},
      {"byte accounting client->server", "byte accounting client->server"},
      {"reinjection backlog", "reinjection backlog"},
      {"fault windows still open", "fault windows still open"},
      {"counter ", "counter mismatch"},
      {"subflow-failure counters", "counter mismatch"},
      {"reinjection counters", "counter mismatch"},
      {"run threw", "run threw"},
      {"retry budget exceeded", "retry budget exceeded"},
  };
  // Substring rules: messages that lead with a run-specific value.
  static constexpr KindRule kSubstr[] = {
      {"had no attachable target", "fault target missing"},
      {"reopened after close", "span reopened"},
      {"delivered to dead span", "dead span response"},
  };
  for (const KindRule& r : kPrefix) {
    if (v.rfind(r.needle, 0) == 0) return r.key;
  }
  for (const KindRule& r : kSubstr) {
    if (v.find(r.needle) != std::string_view::npos) return r.key;
  }
  return std::string(v);
}

std::string violation_signature(RunOutcome outcome,
                                const std::vector<std::string>& violations,
                                bool strict) {
  std::set<std::string> keys;
  for (const std::string& v : violations) {
    keys.insert(strict ? v : violation_kind(v));
  }
  std::string out = to_string(outcome);
  for (const std::string& k : keys) {
    out += '|';
    out += k;
  }
  return out;
}

namespace {

// Runs one candidate — the bundle with `plan` under horizon `time_limit`
// — through the campaign code path.
BundleRun probe(const ReproBundle& bundle, const FaultPlan& plan,
                Duration time_limit, Telemetry& telemetry) {
  ReproBundle candidate = bundle;
  candidate.plan = plan;
  candidate.time_limit() = time_limit;
  return run_repro_bundle(candidate, telemetry);
}

// The delta-debugging oracle: candidate batches replay through the
// parallel campaign runner; acceptance is always the first interesting
// candidate in batch order (add-order result slots), so shrinking is
// deterministic for any jobs count.
struct Oracle {
  const ReproBundle& bundle;
  const ShrinkConfig& cfg;
  std::string target;
  int sim_runs = 0;

  bool interesting(const BundleRun& r) const {
    return violation_signature(r.outcome, r.violations, cfg.strict) == target;
  }

  bool check(const FaultPlan& plan, Duration time_limit) {
    ++sim_runs;
    Telemetry telemetry;
    return interesting(probe(bundle, plan, time_limit, telemetry));
  }

  // Index of the first interesting candidate, or -1.
  int first_interesting(const std::vector<FaultPlan>& plans,
                        Duration time_limit) {
    Campaign<char> campaign("shrink", bundle.seed);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const FaultPlan& plan = plans[i];
      campaign.add("cand/" + std::to_string(i),
                   [this, &plan, time_limit](RunContext& ctx) {
                     return interesting(probe(bundle, plan, time_limit,
                                              ctx.telemetry))
                                ? char(1)
                                : char(0);
                   });
    }
    CampaignOptions opts;
    opts.jobs = cfg.jobs;
    opts.progress = nullptr;
    CampaignResult<char> res = campaign.run(opts);
    sim_runs += static_cast<int>(plans.size());
    for (std::size_t i = 0; i < res.results.size(); ++i) {
      if (res.results[i] == 1) return static_cast<int>(i);
    }
    return -1;
  }
};

FaultPlan subset_plan(const FaultPlan& full, const std::vector<int>& idx) {
  FaultPlan p;
  p.events.reserve(idx.size());
  for (int i : idx) p.events.push_back(full.events[i]);
  return p;
}

std::vector<std::vector<int>> split_chunks(const std::vector<int>& v, int n) {
  std::vector<std::vector<int>> out;
  const int sz = static_cast<int>(v.size());
  for (int i = 0; i < n; ++i) {
    const int begin = i * sz / n;
    const int end = (i + 1) * sz / n;
    if (end > begin) {
      out.emplace_back(v.begin() + begin, v.begin() + end);
    }
  }
  return out;
}

// One step of a fault magnitude toward benign; false when there is no
// meaningful smaller value for this kind.
bool benign_step(FaultEvent* e) {
  switch (e->kind) {
    case FaultKind::kRttSpike:  // extra delay in ms → halve
      if (e->value <= 1.0) return false;
      e->value /= 2.0;
      return true;
    case FaultKind::kFlap:  // down-phase seconds → halve
      if (e->value <= 0.2) return false;
      e->value /= 2.0;
      return true;
    case FaultKind::kRateCollapse: {  // rate scale → toward 1.0 (no-op)
      const double next = std::min(1.0, e->value * 2.0);
      if (next == e->value) return false;
      e->value = next;
      return true;
    }
    default:  // blackout/loss-burst/server faults have no magnitude dial
      return false;
  }
}

}  // namespace

ShrinkResult shrink_repro_bundle(const ReproBundle& bundle,
                                 const ShrinkConfig& cfg) {
  ShrinkResult res;
  res.initial_events = static_cast<int>(bundle.plan.events.size());
  res.minimized = bundle;
  res.final_events = res.initial_events;

  auto logln = [&res, &cfg](const std::string& line) {
    res.log += line;
    res.log += '\n';
    if (cfg.progress != nullptr) {
      std::fprintf(cfg.progress, "%s\n", line.c_str());
    }
  };

  Oracle oracle{bundle, cfg, "", 0};

  // Baseline: the stored plan must still provoke a failure, and its
  // signature becomes the oracle target.
  BundleRun base;
  {
    ++oracle.sim_runs;
    Telemetry telemetry;
    base = run_repro_bundle(bundle, telemetry);
  }
  oracle.target = violation_signature(base.outcome, base.violations,
                                      cfg.strict);
  logln("baseline: " + std::to_string(res.initial_events) +
        " events, signature " + oracle.target);
  if (base.outcome == RunOutcome::kOk) {
    logln("baseline run is clean; nothing to shrink");
    res.sim_runs = oracle.sim_runs;
    return res;
  }
  res.reproduced = true;

  FaultPlan plan = bundle.plan;
  Duration time_limit = bundle.time_limit();

  // --- ddmin over event indices -----------------------------------------
  // Quick exit: if the failure does not need faults at all, the minimal
  // plan is empty and ddmin has nothing to do.
  if (!plan.events.empty() && oracle.check(FaultPlan{}, time_limit)) {
    plan.events.clear();
    ++res.steps;
    logln("ddmin: empty plan still reproduces; dropping all events");
  }
  std::vector<int> current(plan.events.size());
  for (std::size_t i = 0; i < current.size(); ++i) {
    current[i] = static_cast<int>(i);
  }
  int granularity = 2;
  while (static_cast<int>(current.size()) >= 2) {
    const std::vector<std::vector<int>> chunks =
        split_chunks(current, granularity);
    std::vector<FaultPlan> candidates;
    std::vector<std::vector<int>> cand_idx;
    // Subsets first, then (for granularity > 2) complements — classic
    // ddmin candidate order.
    for (const std::vector<int>& c : chunks) {
      candidates.push_back(subset_plan(plan, c));
      cand_idx.push_back(c);
    }
    const std::size_t subset_count = candidates.size();
    if (granularity > 2) {
      for (const std::vector<int>& c : chunks) {
        std::vector<int> complement;
        std::set_difference(current.begin(), current.end(), c.begin(),
                            c.end(), std::back_inserter(complement));
        candidates.push_back(subset_plan(plan, complement));
        cand_idx.push_back(std::move(complement));
      }
    }
    const int hit = oracle.first_interesting(candidates, time_limit);
    ++res.steps;
    if (hit >= 0) {
      const bool was_subset = static_cast<std::size_t>(hit) < subset_count;
      logln("ddmin: " + std::to_string(current.size()) + " -> " +
            std::to_string(cand_idx[hit].size()) + " events (" +
            (was_subset ? "subset" : "complement") + " " +
            std::to_string(hit % subset_count + 1) + "/" +
            std::to_string(subset_count) + ")");
      current = std::move(cand_idx[hit]);
      granularity = was_subset ? 2 : std::max(granularity - 1, 2);
      continue;
    }
    if (granularity < static_cast<int>(current.size())) {
      granularity =
          std::min(static_cast<int>(current.size()), granularity * 2);
      continue;
    }
    break;
  }
  // Size-1 tail ddmin cannot reach: try dropping the last event.
  if (current.size() == 1 && oracle.check(FaultPlan{}, time_limit)) {
    current.clear();
    ++res.steps;
    logln("ddmin: last event unnecessary; dropping it");
  }
  plan = subset_plan(plan, current);
  logln("ddmin done: " + std::to_string(res.initial_events) + " -> " +
        std::to_string(plan.events.size()) + " events");

  // --- attribute ladders (serial, order-deterministic) ------------------
  const Duration duration_floor = seconds(0.1);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    while (plan.events[i].duration > duration_floor) {
      Duration half = plan.events[i].duration / 2;
      if (half < duration_floor) half = duration_floor;
      FaultPlan trial = plan;
      trial.events[i].duration = half;
      if (!oracle.check(trial, time_limit)) break;
      ++res.steps;
      logln("duration: event " + std::to_string(i) + " " +
            std::to_string(plan.events[i].duration.count()) + "ns -> " +
            std::to_string(half.count()) + "ns");
      plan = std::move(trial);
    }
  }
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    for (;;) {
      FaultPlan trial = plan;
      if (!benign_step(&trial.events[i])) break;
      if (!oracle.check(trial, time_limit)) break;
      ++res.steps;
      logln("value: event " + std::to_string(i) + " " +
            std::to_string(plan.events[i].value) + " -> " +
            std::to_string(trial.events[i].value));
      plan = std::move(trial);
    }
  }
  const Duration horizon_floor = seconds(10.0);
  while (time_limit > horizon_floor) {
    Duration half = time_limit / 2;
    if (half < horizon_floor) half = horizon_floor;
    if (!oracle.check(plan, half)) break;
    ++res.steps;
    logln("horizon: time limit " + std::to_string(time_limit.count()) +
          "ns -> " + std::to_string(half.count()) + "ns");
    time_limit = half;
  }

  // Final run rewrites the bundle's expectations to the minimized plan's
  // actual strings, so `mpdash_sim repro minimized.json` verifies bitwise.
  BundleRun fin;
  {
    ++oracle.sim_runs;
    Telemetry telemetry;
    fin = probe(bundle, plan, time_limit, telemetry);
  }
  res.minimized.plan = plan;
  res.minimized.time_limit() = time_limit;
  res.minimized.outcome = fin.outcome;
  res.minimized.hung_reason = fin.hung_reason;
  res.minimized.expected_violations = fin.violations;
  res.final_events = static_cast<int>(plan.events.size());
  res.sim_runs = oracle.sim_runs;
  logln("final: " + std::to_string(res.final_events) + " events, " +
        std::to_string(res.sim_runs) + " sim runs, " +
        std::to_string(res.steps) + " steps, signature " +
        violation_signature(fin.outcome, fin.violations, cfg.strict));
  return res;
}

}  // namespace mpdash
