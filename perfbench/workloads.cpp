#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "analysis/spans.h"
#include "dash/player.h"
#include "dash/video.h"
#include "exp/chaos.h"
#include "exp/fleet.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "fault/fault.h"
#include "runner/campaign.h"
#include "telemetry/telemetry.h"
#include "trace/locations.h"
#include "util/rng.h"

namespace perfbench {

using namespace mpdash;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// The traced side of a pass: one sink on every run's telemetry context and
// the sum of the runs' registries. An untraced pass has no tracer, so its
// run bodies are the traced ones minus these two steps.
struct Tracer {
  CountingSink sink;
  RegistryTotals reg;
};

// Runs `body`; with a tracer, the sink watches `telemetry` for the run and
// the run's registry is summed afterwards.
template <typename Body>
auto traced_or_not(Tracer* tracer, Telemetry& telemetry, Body&& body) {
  if (!tracer) return body();
  telemetry.add_sink(&tracer->sink);
  auto result = body();
  telemetry.remove_sink(&tracer->sink);
  tracer->reg.add(telemetry.metrics());
  return result;
}

// Restarts the process's peak-RSS high-water mark (VmHWM) at the current
// RSS. Where /proc does not allow it the mark keeps the process peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// The process's peak RSS in MB since the last reset.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Runs one unit of a pass's work and records its peak RSS.
template <typename Body>
auto metered(std::vector<double>* peaks, Body&& body) {
  reset_peak_rss();
  auto result = body();
  peaks->push_back(peak_rss_mb());
  return result;
}

CampaignOptions one_worker() {
  CampaignOptions opts;
  opts.jobs = 1;
  opts.progress = nullptr;
  return opts;
}

// Sink-versus-registry agreement: every delivered packet the sink saw is
// counted by exactly one link.*.delivered_packets counter, and the
// scheduler/HTTP trace labels mirror their registry counters. The latter
// need sessions that emit to the pass's telemetry; `sessions_traced` is
// false where they do not (fleet tenants), and those checks are skipped.
void cross_check(const Tracer& t, bool sessions_traced, LayerCounts* c) {
  auto expect = [c](const char* what, double trace, double registry) {
    if (trace != registry) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: trace %.0f != registry %.0f", what,
                    trace, registry);
      c->mismatches.push_back(buf);
    }
  };
  expect("delivered packets",
         static_cast<double>(t.sink.count(TraceType::kPacketDeliver)),
         t.reg.delivered_packets);
  if (!sessions_traced) return;
  expect("sched begin", static_cast<double>(t.sink.sched_begin),
         t.reg.sched_transfers);
  expect("sched enable", static_cast<double>(t.sink.sched_enable),
         t.reg.sched_activations);
  expect("sched miss", static_cast<double>(t.sink.sched_miss),
         t.reg.sched_misses);
  expect("http retries", static_cast<double>(t.sink.http_retry),
         t.reg.http_retries);
}

// Counts every workload reads the same way: from the sink and the summed
// registries of the traced pass.
void fill_common(const Tracer& t, bool sessions_traced, LayerCounts* c) {
  const CountingSink& sink = t.sink;
  c->events_executed = t.reg.executed_events;
  c->packets_sent = static_cast<double>(sink.count(TraceType::kPacketSend));
  c->packets_delivered =
      static_cast<double>(sink.count(TraceType::kPacketDeliver));
  c->packets_dropped = static_cast<double>(sink.count(TraceType::kPacketDrop));
  c->data_packets_sent = static_cast<double>(sink.data_sent);
  c->acks = static_cast<double>(sink.count(TraceType::kSubflowUpdate));
  c->retransmissions = t.reg.retransmissions;
  c->tcp_timeouts = t.reg.tcp_timeouts;
  c->mask_changes = t.reg.mask_changes;
  c->http_requests = static_cast<double>(sink.http_request);
  c->sched_decisions =
      static_cast<double>(sink.count(TraceType::kSchedDecision));
  c->sched_activations = static_cast<double>(sink.sched_enable);
  c->sched_active_s = sink.sched_active_s;
  c->records = static_cast<double>(sink.total());
  cross_check(t, sessions_traced, c);
}

// Result-struct counters shared by field sessions and fleet tenants.
void add_session_counts(const SessionResult& r, LayerCounts* c) {
  c->subflow_failures += r.subflow_failures;
  c->reinjected += r.reinjected_packets;
  c->http_timeouts += r.http_timeouts;
  c->http_retries += r.http_retries;
  c->chunks += r.chunks;
  c->stalls += r.stalls;
  c->switches += r.switches;
  c->deadline_misses += r.deadline_misses;
  c->chunks_engaged += r.chunks_engaged;
  c->fault_injected += r.faults_started;
  c->fault_skipped += r.faults_skipped;
}

double session_qoe(const SessionResult& r) {
  return r.steady_avg_bitrate_mbps - kFleetStallPenalty * r.stall_s;
}

// --- field ---------------------------------------------------------------

// The §7.3 grid: 33 locations × {festive, bba} × {baseline, rate,
// duration}, full-length Big Buck Bunny over location-profile traces.
class FieldWorkload final : public Workload {
 public:
  // One pass streams every location once. The seed decides which
  // (algorithm, scheme) pair each location gets, from a balanced list in
  // which every pair appears 5 or 6 times, so every seed sees the whole
  // population and the same mix of schemes.
  explicit FieldWorkload(std::uint64_t seed)
      : video_(big_buck_bunny(seconds(4.0))) {
    static const char* const kAlgos[] = {"festive", "bba"};
    static const Scheme kSchemes[] = {Scheme::kBaseline, Scheme::kMpDashRate,
                                      Scheme::kMpDashDuration};
    constexpr int kPairs = 6;
    Rng rng(derive_stream_seed(seed, "perfbench/field"));
    const std::vector<LocationProfile>& all = field_study_locations();
    const auto offset = rng.uniform_int(0, kPairs - 1);
    std::vector<int> pair(all.size());
    for (std::size_t k = 0; k < pair.size(); ++k) {
      pair[k] = static_cast<int>((static_cast<std::int64_t>(k) + offset) %
                                 kPairs);
    }
    for (std::size_t i = pair.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(pair[i - 1], pair[j]);
    }

    const Duration horizon = video_.total_duration() + seconds(120.0);
    const double t0 = now_s();
    for (std::size_t k = 0; k < all.size(); ++k) {
      const LocationProfile& loc = all[k];
      Cell cell;
      cell.net.wifi_down = loc.wifi_trace(horizon);
      cell.net.lte_down = loc.lte_trace(horizon);
      cell.net.wifi_rtt = loc.wifi_rtt;
      cell.net.lte_rtt = loc.lte_rtt;
      cell.config.adaptation = kAlgos[pair[k] / 3];
      cell.config.scheme = kSchemes[pair[k] % 3];
      cell.key = loc.name + "/" + cell.config.adaptation + "/" +
                 to_string(cell.config.scheme);
      cells_.push_back(std::move(cell));
    }
    trace_gen_s_ = now_s() - t0;
  }

  BatchResult run(LayerCounts* counts) override {
    Tracer tracer;
    Tracer* t = counts ? &tracer : nullptr;
    Campaign<SessionResult> campaign("perfbench-field");
    std::vector<double> peaks;
    for (const Cell& cell : cells_) {
      campaign.add(cell.key, [this, &cell, t, &peaks](RunContext& ctx) {
        return metered(&peaks, [&] {
          // Untraced sessions get no telemetry context, as in the benches.
          SessionEnv env;
          if (t) env.telemetry = &ctx.telemetry;
          return traced_or_not(t, ctx.telemetry, [&] {
            Scenario scenario(cell.net);
            return run_streaming_session(scenario, video_, cell.config, env);
          });
        });
      });
    }
    const CampaignResult<SessionResult> res = campaign.run(one_worker());
    if (counts) {
      fill_common(tracer, true, counts);
      for (const SessionResult& r : res.results) add_session_counts(r, counts);
    }
    BatchResult out = summarize(res.results, res.reports);
    out.run_peak_rss_mb = std::move(peaks);
    out.campaign_wall_s = res.stats.wall_s;
    out.run_wall_sum_s = res.stats.run_wall_sum_s;
    return out;
  }

  double trace_gen_s() const override { return trace_gen_s_; }

 private:
  struct Cell {
    std::string key;
    ScenarioConfig net;
    SessionConfig config;
  };

  BatchResult summarize(const std::vector<SessionResult>& results,
                        const std::vector<RunReport>& reports) const {
    BatchResult out;
    double qoe = 0.0;
    double wifi = 0.0, cell = 0.0;
    char buf[320];
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SessionResult& r = results[i];
      ++out.attempted;
      if (!reports[i].ok || !r.completed ||
          r.chunks != video_.chunk_count()) {
        ++out.failed;
      }
      std::snprintf(buf, sizeof buf,
                    "%s done=%d t=%.6f chunks=%d stalls=%d stall_s=%.6f "
                    "sw=%d steady=%.6f wifi=%lld cell=%lld miss=%d eng=%d\n",
                    cells_[i].key.c_str(), r.completed ? 1 : 0, r.session_s,
                    r.chunks, r.stalls, r.stall_s, r.switches,
                    r.steady_avg_bitrate_mbps,
                    static_cast<long long>(r.wifi_bytes),
                    static_cast<long long>(r.cell_bytes), r.deadline_misses,
                    r.chunks_engaged);
      out.fingerprint += buf;
      out.sim_s += r.session_s;
      qoe += session_qoe(r);
      wifi += static_cast<double>(r.wifi_bytes);
      cell += static_cast<double>(r.cell_bytes);
    }
    out.qoe_mean = share(qoe, static_cast<double>(results.size()));
    out.cell_fraction = share(cell, wifi + cell);
    return out;
  }

  Video video_;
  std::vector<Cell> cells_;
  double trace_gen_s_ = 0.0;
};

// --- fleet-1024 ----------------------------------------------------------

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) {
    cfg_.sessions = 1024;
    cfg_.seed = derive_stream_seed(seed, "perfbench/fleet-1024");
  }

  BatchResult run(LayerCounts* counts) override {
    Tracer tracer;
    Tracer* t = counts ? &tracer : nullptr;
    Telemetry telemetry;
    std::vector<double> peaks;
    const FleetResult r = metered(&peaks, [&] {
      return traced_or_not(t, telemetry, [&] {
        return run_fleet(cfg_, t ? &telemetry : nullptr);
      });
    });
    if (counts) {
      // Tenant stacks instrument private registries and emit nothing to
      // the fleet's telemetry, so the session-level counts come from the
      // per-tenant results, and so does Algorithm 1's active time: the
      // download time of every chunk that carried a deadline.
      fill_common(tracer, false, counts);
      for (const FleetSessionResult& s : r.sessions) {
        add_session_counts(s.result, counts);
        for (const ChunkRecord& c : s.result.chunk_log) {
          if (c.deadline) {
            counts->sched_active_s += to_seconds(c.download_time());
          }
        }
      }
      counts->fault_injected = r.faults_started;
      counts->fault_skipped = r.faults_skipped;
    }
    BatchResult out = summarize(r);
    out.run_peak_rss_mb = std::move(peaks);
    return out;
  }

 private:
  BatchResult summarize(const FleetResult& r) const {
    BatchResult out;
    out.attempted = cfg_.sessions;
    if (!r.ok()) {
      out.failed = cfg_.sessions;
    } else {
      for (const FleetSessionResult& s : r.sessions) {
        if (!s.result.completed || !s.violations.empty()) ++out.failed;
      }
    }
    out.fingerprint = r.fingerprint() + "\n" + fleet_sessions_csv(r);
    for (const FleetSessionResult& s : r.sessions) {
      out.sim_s += s.result.session_s;
    }
    out.qoe_mean = r.qoe_mean;
    out.cell_fraction = r.cell_fraction;
    return out;
  }

  FleetConfig cfg_;
};

// --- chaos ---------------------------------------------------------------

ChaosConfig chaos_config(std::uint64_t seed) {
  ChaosConfig cfg;
  cfg.seed_count = 150;
  cfg.base_seed = derive_stream_seed(seed, "perfbench/chaos");
  cfg.jobs = 1;
  cfg.progress = nullptr;
  cfg.attribution = true;
  return cfg;
}

// The campaign key of run `i`, as run_chaos_campaign names it; the run's
// seed derives from it.
std::string chaos_run_key(int i) { return "chaos/" + std::to_string(i); }

// The same campaign as run_chaos_campaign (name, seeds, keys, crash
// mapping), but over the video and fault plans built in set-up.
class ChaosWorkload final : public Workload {
 public:
  explicit ChaosWorkload(std::uint64_t seed)
      : cfg_(chaos_config(seed)), video_(chaos_video(cfg_)) {
    for (int i = 0; i < cfg_.seed_count; ++i) {
      plans_.push_back(random_fault_plan(
          derive_run_seed(cfg_.base_seed, chaos_run_key(i)), cfg_.plan));
    }
  }

  BatchResult run(LayerCounts* counts) override {
    Tracer tracer;
    Tracer* t = counts ? &tracer : nullptr;
    Campaign<ChaosRunResult> campaign("chaos", cfg_.base_seed);
    std::vector<double> peaks;
    for (int i = 0; i < cfg_.seed_count; ++i) {
      campaign.add(chaos_run_key(i), [this, i, t, &peaks](RunContext& ctx) {
        return metered(&peaks, [&] {
          return traced_or_not(t, ctx.telemetry, [&] {
            return run_chaos_single(cfg_, video_, ctx.seed,
                                    plans_[static_cast<std::size_t>(i)],
                                    ctx.telemetry);
          });
        });
      });
    }
    CampaignResult<ChaosRunResult> res = campaign.run(one_worker());
    std::vector<ChaosRunResult>& runs = res.results;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (!res.reports[i].ok) {
        runs[i].seed = res.reports[i].seed;
        runs[i].outcome = RunOutcome::kCrashed;
        runs[i].violations.push_back("run threw: " + res.reports[i].error);
      }
    }

    BatchResult out = summarize(runs);
    out.run_peak_rss_mb = std::move(peaks);
    out.campaign_wall_s = res.stats.wall_s;
    out.run_wall_sum_s = res.stats.run_wall_sum_s;
    if (counts) count_layers(tracer, runs, counts, &out);
    return out;
  }

 private:
  BatchResult summarize(const std::vector<ChaosRunResult>& runs) const {
    BatchResult out;
    for (const ChaosRunResult& r : runs) {
      ++out.attempted;
      if (!r.ok()) ++out.failed;
      out.fingerprint += r.fingerprint();
      out.fingerprint += '\n';
      out.sim_s += r.session_s;
    }
    return out;
  }

  void count_layers(const Tracer& tracer,
                    const std::vector<ChaosRunResult>& runs,
                    LayerCounts* counts, BatchResult* out) const {
    fill_common(tracer, true, counts);
    for (const ChaosRunResult& r : runs) {
      counts->subflow_failures += r.subflow_failures;
      counts->reinjected += r.reinjected_packets;
      counts->http_timeouts += r.http_timeouts;
      counts->http_retries += r.http_retries;
      counts->chunks += r.chunks_delivered;
      counts->stalls += r.stalls;
      counts->fault_injected += r.faults_started;
      counts->fault_skipped += r.faults_skipped;
    }
    // Chaos results carry no switch, miss or engagement counts; the run
    // registries do.
    const RegistryTotals& reg = tracer.reg;
    counts->switches = reg.switches;
    counts->deadline_misses = reg.sched_misses;
    counts->chunks_engaged = reg.sched_transfers;
    counts->analysed_runs = static_cast<double>(runs.size());

    // Per-run QoE from the trace: mean bitrate of completed chunks minus
    // the stall penalty on the mean stall time per run.
    double mbps = 0.0, chunks = 0.0;
    const auto& levels = video_.levels();
    const std::size_t n_levels =
        std::min(levels.size(), tracer.sink.completed_by_level.size());
    for (std::size_t l = 0; l < n_levels; ++l) {
      const double n = static_cast<double>(tracer.sink.completed_by_level[l]);
      mbps += n * levels[l].avg_bitrate.as_mbps();
      chunks += n;
    }
    out->qoe_mean = share(mbps, chunks) -
                    kFleetStallPenalty *
                        share(tracer.sink.stall_s,
                              static_cast<double>(runs.size()));
    out->cell_fraction =
        share(reg.cell_bytes, reg.wifi_bytes + reg.cell_bytes);
  }

  ChaosConfig cfg_;
  Video video_;
  std::vector<FaultPlan> plans_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "field") return std::make_unique<FieldWorkload>(seed);
  if (name == "fleet-1024") return std::make_unique<FleetWorkload>(seed);
  if (name == "chaos") return std::make_unique<ChaosWorkload>(seed);
  return nullptr;
}

std::vector<TraceRecord> chaos_span_records(std::uint64_t seed) {
  const ChaosConfig cfg = chaos_config(seed);
  const std::uint64_t s = derive_run_seed(cfg.base_seed, chaos_run_key(0));
  TraceCollector collector;
  TypeFilterSink filter(&collector, span_model_trace_mask());
  Telemetry telemetry;
  telemetry.add_sink(&filter);
  run_chaos_single(cfg, chaos_video(cfg), s, random_fault_plan(s, cfg.plan),
                   telemetry);
  telemetry.remove_sink(&filter);
  return collector.take();
}

}  // namespace perfbench
