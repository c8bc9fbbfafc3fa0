#include "exp/fleet.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "exp/repro.h"
#include "fault/injector.h"

namespace mpdash {

namespace {

Video fleet_video(int chunk_count) {
  // Same fixed-content video for every tenant (chaos convention): only the
  // contention, the seeds, and the fault plan vary.
  return Video("fleet", seconds(2.0), chunk_count,
               {DataRate::mbps(0.6), DataRate::mbps(1.2), DataRate::mbps(2.4)},
               0.1, 42);
}

}  // namespace

const char kFleetCsvHeader[] =
    "seed,session,scheme,adaptation,join_s,completed,chunks,abandoned,"
    "retries,stalls,stall_s,switches,steady_mbps,qoe,wifi_bytes,cell_bytes,"
    "violations\n";

std::string fleet_sessions_csv(const FleetResult& r) {
  std::string out;
  char buf[320];
  for (const FleetSessionResult& s : r.sessions) {
    const SessionResult& res = s.result;
    std::snprintf(buf, sizeof buf,
                  "%llu,%d,%s,%s,%.3f,%d,%d,%d,%d,%d,%.6f,%d,%.6f,%.6f,"
                  "%lld,%lld,%zu\n",
                  static_cast<unsigned long long>(r.seed), s.session,
                  to_string(s.scheme), s.adaptation.c_str(), s.join_s,
                  res.completed ? 1 : 0, res.chunks, res.chunks_abandoned,
                  res.chunk_retries, res.stalls, res.stall_s, res.switches,
                  res.steady_avg_bitrate_mbps, s.qoe,
                  static_cast<long long>(res.wifi_bytes),
                  static_cast<long long>(res.cell_bytes),
                  s.violations.size());
    out += buf;
  }
  return out;
}

std::string FleetResult::fingerprint() const {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "seed=%llu out=%s n=%zu done=%d qoe=%.6f p10=%.6f jain=%.6f "
      "wifi=%lld cell=%lld faults=%d skip=%d viol=%zu",
      static_cast<unsigned long long>(seed), to_string(outcome),
      sessions.size(), completed, qoe_mean, qoe_p10, jain_fairness,
      static_cast<long long>(wifi_bytes), static_cast<long long>(cell_bytes),
      faults_started, faults_skipped, violations.size());
  std::string out = buf;
  if (!hung_reason.empty()) out += " why=" + hung_reason;
  return out;
}

FleetResult run_fleet(const FleetConfig& cfg, Telemetry* telemetry) {
  FleetResult out;
  out.seed = cfg.seed;
  const int n = std::max(1, cfg.sessions);

  // Shared bottlenecks: the Scenario topology, one WiFi AP and one
  // cellular carrier, each a down/up link pair every tenant contends on.
  // Loss streams derive from the fleet seed exactly as a chaos session's do.
  ScenarioConfig net = constant_scenario(DataRate::mbps(cfg.wifi_mbps),
                                         DataRate::mbps(cfg.lte_mbps));
  net.wifi_up = DataRate::mbps(cfg.wifi_up_mbps);
  net.lte_up = DataRate::mbps(cfg.lte_up_mbps);
  net.wifi_rtt = cfg.wifi_rtt;
  net.lte_rtt = cfg.lte_rtt;
  net.queue_capacity = cfg.queue_capacity;
  net.discipline = cfg.discipline;
  net.fq_quantum = cfg.fq_quantum;
  net.seed = derive_stream_seed(cfg.seed, "links");
  Scenario scenario(std::move(net));

  const Video video = fleet_video(cfg.chunk_count);

  // Tenant i runs the mix entry it cycles to, seeded from "session/<i>",
  // joins at i × join_stagger and instruments a private context for its
  // counter audit. The fleet's plan, watchdog and time limit govern the
  // whole loop.
  std::vector<FleetSessionResult> rows(static_cast<std::size_t>(n));
  std::vector<Telemetry> audit(static_cast<std::size_t>(n));
  std::vector<RunTenant> tenants;
  tenants.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FleetSessionResult& row = rows[static_cast<std::size_t>(i)];
    row.session = i;
    row.seed = derive_stream_seed(cfg.seed, "session/" + std::to_string(i));
    const SessionSpec spec =
        cfg.mix.empty() ? SessionSpec{}
                        : cfg.mix[static_cast<std::size_t>(i) % cfg.mix.size()];
    row.scheme = spec.scheme;
    row.adaptation = spec.adaptation;
    const TimePoint join(cfg.join_stagger * i);
    row.join_s = to_seconds(join);
    tenants.push_back({resolve_session_config(spec, row.seed), join,
                       &audit[static_cast<std::size_t>(i)]});
  }
  StreamingRun run(scenario, video, tenants, cfg.faults, telemetry);
  try {
    run.run(cfg.time_limit, cfg.watchdog);
  } catch (const WatchdogTripped& e) {
    // Quarantine, chaos-style: the fleet was killed mid-sim, so there are
    // no per-tenant results to audit.
    out.outcome = RunOutcome::kHung;
    out.hung_reason = e.what();
    return out;
  }

  // --- per-tenant collection and audit ---------------------------------
  double qoe_sum = 0.0;
  std::vector<double> qoes;
  double rate_sum = 0.0, rate_sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    FleetSessionResult& sr = rows[static_cast<std::size_t>(i)];
    SessionResult res = run.collect(i);
    if (res.completed) ++out.completed;

    sr.qoe = res.steady_avg_bitrate_mbps - kFleetStallPenalty * res.stall_s;
    sr.violations = check_chaos_invariants(res, cfg.chunk_count);
    {
      std::vector<std::string> cv = check_counter_invariants(
          audit[static_cast<std::size_t>(i)].metrics(), res);
      sr.violations.insert(sr.violations.end(),
                           std::make_move_iterator(cv.begin()),
                           std::make_move_iterator(cv.end()));
    }
    for (const std::string& v : sr.violations) {
      out.violations.push_back("session " + std::to_string(i) + ": " + v);
    }

    qoe_sum += sr.qoe;
    qoes.push_back(sr.qoe);
    rate_sum += res.steady_avg_bitrate_mbps;
    rate_sumsq +=
        res.steady_avg_bitrate_mbps * res.steady_avg_bitrate_mbps;
    sr.result = std::move(res);
  }
  out.sessions = std::move(rows);

  // --- fleet-level audit and aggregates --------------------------------
  if (const FaultInjector* injector = run.faults()) {
    out.faults_started = injector->faults_started();
    out.faults_skipped = injector->faults_skipped();
    if (!injector->quiescent()) {
      out.violations.push_back("fault windows still open at fleet end");
    }
    if (injector->faults_skipped() != 0) {
      out.violations.push_back(std::to_string(injector->faults_skipped()) +
                               " fault events had no attachable target");
    }
  }

  out.qoe_mean = qoe_sum / static_cast<double>(n);
  std::sort(qoes.begin(), qoes.end());
  out.qoe_p10 = qoes[static_cast<std::size_t>((n + 9) / 10 - 1)];
  out.jain_fairness =
      rate_sumsq > 0.0
          ? (rate_sum * rate_sum) / (static_cast<double>(n) * rate_sumsq)
          : 1.0;
  out.wifi_bytes = scenario.wifi_bytes();
  out.cell_bytes = scenario.cellular_bytes();
  const Bytes total = out.wifi_bytes + out.cell_bytes;
  out.cell_fraction = total > 0 ? static_cast<double>(out.cell_bytes) /
                                      static_cast<double>(total)
                                : 0.0;
  out.outcome = out.violations.empty() ? RunOutcome::kOk
                                       : RunOutcome::kViolation;
  return out;
}

// --- campaign ----------------------------------------------------------

std::string FleetCampaignResult::sessions_csv() const {
  std::string out = kFleetCsvHeader;
  for (const FleetResult& r : runs) out += fleet_sessions_csv(r);
  return out;
}

FleetCampaignResult run_fleet_campaign(const FleetCampaignConfig& cfg) {
  Campaign<FleetResult> campaign("fleet", cfg.base_seed);
  for (int i = 0; i < cfg.seed_count; ++i) {
    campaign.add("fleet/" + std::to_string(i), [&cfg](RunContext& ctx) {
      FleetConfig f = cfg.fleet;
      f.seed = ctx.seed;
      FaultPlan plan;
      if (cfg.chaos) {
        plan = random_fault_plan(ctx.seed, cfg.plan);
        f.faults = &plan;
      }
      FleetResult r = run_fleet(f, &ctx.telemetry);
      if (!cfg.bundle_dir.empty() && !r.ok()) {
        emit_repro_bundle(cfg.bundle_dir, make_repro_bundle(f, r, plan));
      }
      return r;
    });
  }
  return run_campaign<FleetCampaignResult>(campaign, cfg.jobs, cfg.progress);
}

}  // namespace mpdash
