// The benchmark program: runs one workload's inputs untraced until the
// measuring time is used up, then once traced with a CountingSink, then
// (with --layers) the per-layer drivers, and prints every metric as one
// JSON object on the last line of stdout. perfbench/run.py builds this
// program, adds the process-level set-up time, and selects the metrics the
// caller asked for. Without --layers the driver metrics read 0.
//
//   perfbench --workload <field|fleet-1024|chaos> --seed N --seconds S
//             [--layers]
//   perfbench --workload W --seed N --setup-only   (set-up, a speed
//             probe, then exit)
//
// Exit status: 0 when every output check held, 1 when one failed (the
// result line is still printed), 2 on a usage error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/mpdash_socket.h"
#include "drivers.h"
#include "speed_probe.h"
#include "workloads.h"

using namespace perfbench;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <field|fleet-1024|chaos> "
               "--seed N (--seconds S [--layers] | --setup-only)\n");
  return 2;
}

// Sampling interval of the MPTCP client's per-path Holt-Winters rate
// sampler (a private constant of the MPTCP endpoint).
constexpr double kSamplerIntervalS = 0.1;

// One pass over the workload's inputs, timed by `probe`.
BatchResult timed_pass(Workload& workload, LayerCounts* counts,
                       SpeedProbe& probe, PassTime* time) {
  probe.begin_pass();
  BatchResult result = workload.run(counts);
  *time = probe.end_pass();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool setup_only = false;
  bool layers = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (flag == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (flag == "--setup-only") {
      setup_only = true;
    } else if (flag == "--layers") {
      layers = true;
    } else {
      return usage();
    }
  }
  if (workload_name.empty() || !have_seed || (!setup_only && seconds <= 0.0)) {
    return usage();
  }

  // --- set-up: input generation ----------------------------------------
  std::unique_ptr<Workload> workload = make_workload(workload_name, seed);
  if (!workload) return usage();
  const double setup_done = now_s();
  if (setup_only) {
    // Probes right after set-up: the machine's speed while it ran.
    SpeedProbe probe;
    probe.begin_pass();
    probe.end_pass();
    std::printf("{\"setup_done\": %.9f, \"speed\": %.9f}\n", setup_done,
                probe.speed());
    return 0;
  }
  const bool fleet = workload_name == "fleet-1024";

  // --- untraced passes: the end-to-end measurement ---------------------
  // Each pass is timed raw and at the reference speed (speed_probe.h).
  SpeedProbe probe;
  std::vector<BatchResult> passes;
  std::vector<double> raw_walls, walls;
  const double measure_start = now_s();
  do {
    PassTime t;
    passes.push_back(timed_pass(*workload, nullptr, probe, &t));
    raw_walls.push_back(t.raw_s);
    walls.push_back(t.scaled_s);
    std::fprintf(stderr, "perfbench: pass %.3f s raw, %.3f s scaled\n",
                 t.raw_s, t.scaled_s);
  } while (now_s() - measure_start < seconds);
  const double raw_wall_s = median(raw_walls);
  const double wall_s = median(walls);
  // The first pass also pays for heap growth; the traced pass runs warm,
  // so the tracing overhead compares it with the warm passes when any ran.
  const double warm_wall_s =
      walls.size() > 1 ? median({walls.begin() + 1, walls.end()}) : wall_s;
  // The median run's peak in the first pass. The process's peak is set by
  // the one run with the most live memory, which only some seeds have;
  // later passes start from the memory earlier ones left behind. The
  // probe's own table is not the simulator's.
  const double peak_rss_mb =
      median(passes.front().run_peak_rss_mb) - SpeedProbe::kTableMb;

  // --- traced pass: the per-layer counts --------------------------------
  LayerCounts counts;
  PassTime traced_time;
  const BatchResult traced =
      timed_pass(*workload, &counts, probe, &traced_time);

  // --- output checks -----------------------------------------------------
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;
  for (const BatchResult& p : passes) {
    attempted += p.attempted;
    failed += p.fingerprint == passes.front().fingerprint ? p.failed
                                                          : p.attempted;
  }
  attempted += traced.attempted;
  if (traced.fingerprint != passes.front().fingerprint) {
    failed += traced.attempted;
    problems.push_back("traced pass fingerprint differs from untraced");
  } else {
    failed += traced.failed;
  }
  if (passes.front().fingerprint.empty()) problems.push_back("empty result");
  for (const std::string& m : counts.mismatches) problems.push_back(m);

  // --- per-layer drivers (per-layer metrics only) ------------------------
  DriverResult sim64, sim4096, link_fifo, link_drr, core, predict, http,
      analysis;
  std::uint64_t spans = 0;
  if (layers) {
    sim64 = sim_driver(64, seed);
    sim4096 = sim_driver(4096, seed);
    link_fifo = link_driver(1, seed);
    link_drr = link_driver(1024, seed);
    core = core_driver();
    predict = predict_driver(seed);
    http = http_driver();
    analysis = analysis_driver(chaos_span_records(seed), &spans);
  }
  const struct {
    const char* name;
    const DriverResult& r;
  } drivers[] = {{"sim.d64", sim64},   {"sim.d4096", sim4096},
                 {"link.fifo", link_fifo}, {"link.drr1024", link_drr},
                 {"core", core},       {"predict", predict},
                 {"http", http},       {"analysis", analysis}};
  for (const auto& d : drivers) {
    if (!d.r.ok) problems.push_back(std::string(d.name) + " driver check");
  }
  attempted += static_cast<long>(problems.size());
  failed += static_cast<long>(problems.size());
  const bool correct = problems.empty() && failed == 0;

  // --- metrics ------------------------------------------------------------
  const BatchResult& first = passes.front();
  const double sim_ns = fleet ? sim4096.ns_per_call : sim64.ns_per_call;
  const double link_ns = fleet ? link_drr.ns_per_call : link_fifo.ns_per_call;
  // Driver costs are raw timings, so the shares divide by the raw wall.
  const double wall_ns = raw_wall_s * 1e9;
  // Link events: one serialize-done per serialized packet plus one deliver
  // per delivered packet; the sim driver's cost covers the rest.
  const double link_events =
      2.0 * counts.packets_delivered + counts.packets_dropped;
  const double decision_interval_s =
      mpdash::to_seconds(mpdash::MpDashSocketConfig{}.check_interval);
  const std::map<std::string, double> shares = {
      {"sim.est_share",
       std::max(0.0, counts.events_executed - link_events) * sim_ns / wall_ns},
      {"link.est_share", counts.packets_sent * link_ns / wall_ns},
      {"core.est_share", counts.sched_active_s / decision_interval_s *
                             core.ns_per_call / wall_ns},
      {"predict.est_share", first.sim_s * 2.0 / kSamplerIntervalS *
                                predict.ns_per_call / wall_ns},
      {"http.est_share", counts.chunks * http.ns_per_call / wall_ns},
      {"analysis.est_share",
       counts.analysed_runs * analysis.ns_per_call / wall_ns},
  };
  double attributed = 0.0;
  for (const auto& [name, v] : shares) attributed += v;

  std::vector<Metric> metrics = {
      // end to end
      {"wall_s", wall_s, "s"},
      {"sim_s_per_wall_s", ratio(first.sim_s, wall_s), "ratio"},
      {"packets_per_s", ratio(counts.packets_delivered, wall_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ok_frac", 1.0 - ratio(static_cast<double>(failed),
                              static_cast<double>(attempted)),
       "ratio"},
      {"qoe_mean", traced.qoe_mean, "Mbps"},
      {"cell_fraction", traced.cell_fraction, "ratio"},
      // sim
      {"sim.events_executed", counts.events_executed, "count"},
      {"sim.events_per_wall_s", ratio(counts.events_executed, raw_wall_s),
       "1/s"},
      {"sim.events_per_packet",
       ratio(counts.events_executed, counts.packets_delivered), "ratio"},
      {"sim.ns_per_event.d64", sim64.ns_per_call, "ns"},
      {"sim.ns_per_event.d4096", sim4096.ns_per_call, "ns"},
      {"sim.driver_events.d64", static_cast<double>(sim64.calls), "count"},
      {"sim.driver_events.d4096", static_cast<double>(sim4096.calls), "count"},
      // link
      {"link.packets_sent", counts.packets_sent, "count"},
      {"link.packets_delivered", counts.packets_delivered, "count"},
      {"link.packets_dropped", counts.packets_dropped, "count"},
      {"link.drop_frac", ratio(counts.packets_dropped, counts.packets_sent),
       "ratio"},
      {"link.ns_per_packet.fifo", link_fifo.ns_per_call, "ns"},
      {"link.ns_per_packet.drr1024", link_drr.ns_per_call, "ns"},
      {"link.driver_packets.fifo", static_cast<double>(link_fifo.calls),
       "count"},
      {"link.driver_packets.drr1024", static_cast<double>(link_drr.calls),
       "count"},
      // tcp
      {"tcp.acks", counts.acks, "count"},
      {"tcp.retransmissions", counts.retransmissions, "count"},
      {"tcp.timeouts", counts.tcp_timeouts, "count"},
      {"tcp.retx_frac",
       ratio(counts.retransmissions, counts.data_packets_sent), "ratio"},
      // mptcp
      {"mptcp.mask_changes", counts.mask_changes, "count"},
      {"mptcp.subflow_failures", counts.subflow_failures, "count"},
      {"mptcp.reinjected_packets", counts.reinjected, "count"},
      // http
      {"http.requests", counts.http_requests, "count"},
      {"http.timeouts", counts.http_timeouts, "count"},
      {"http.retries", counts.http_retries, "count"},
      {"http.ns_per_response", http.ns_per_call, "ns"},
      {"http.driver_responses", static_cast<double>(http.calls), "count"},
      // dash / adapt
      {"dash.chunks", counts.chunks, "count"},
      {"dash.stalls", counts.stalls, "count"},
      {"dash.switches", counts.switches, "count"},
      // core / adapter / predict
      {"core.sched_decisions", counts.sched_decisions, "count"},
      {"core.sched_activations", counts.sched_activations, "count"},
      {"core.deadline_misses", counts.deadline_misses, "count"},
      {"adapter.chunks_engaged", counts.chunks_engaged, "count"},
      {"core.ns_per_decision", core.ns_per_call, "ns"},
      {"core.driver_decisions", static_cast<double>(core.calls), "count"},
      {"predict.ns_per_sample", predict.ns_per_call, "ns"},
      {"predict.driver_samples", static_cast<double>(predict.calls), "count"},
      // fault
      {"fault.injected", counts.fault_injected, "count"},
      {"fault.skipped", counts.fault_skipped, "count"},
      // analysis
      {"analysis.spans", static_cast<double>(spans), "count"},
      {"analysis.ms_per_run", analysis.ns_per_call / 1e6, "ms"},
      // runner
      {"runner.overhead_frac",
       ratio(first.campaign_wall_s - first.run_wall_sum_s,
             first.campaign_wall_s),
       "ratio"},
      // trace
      {"trace.gen_s", workload->trace_gen_s(), "s"},
      // telemetry
      {"telemetry.records", counts.records, "count"},
      {"telemetry.trace_overhead",
       ratio(traced_time.scaled_s, warm_wall_s) - 1.0, "ratio"},
  };
  for (const auto& [name, v] : shares) metrics.push_back({name, v, "ratio"});
  metrics.push_back({"unattributed_share", 1.0 - attributed, "ratio"});
  // Facts about the run and the machine rather than the code: printed for
  // reading the metrics, never compared between versions.
  const std::vector<Metric> diagnostics = {
      {"untraced_passes", static_cast<double>(passes.size()), "count"},
      {"raw_wall_s", raw_wall_s, "s"},
      {"traced_wall_s", traced_time.raw_s, "s"},
      {"machine_speed", probe.speed(), "ratio"},
  };

  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ", \"attempted\": %ld, \"failed\": %ld, \"setup_done\": %.9f",
                attempted, failed, setup_done);
  json += buf;
  auto append = [&](const char* key, const std::vector<Metric>& ms) {
    json += ", \"";
    json += key;
    json += "\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit);
      json += buf;
    }
    json += "}";
  };
  append("metrics", metrics);
  append("diagnostics", diagnostics);
  json += "}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
