#include "exp/session.h"

#include <algorithm>
#include <stdexcept>

#include "adapt/bba.h"
#include "adapt/festive.h"
#include "adapt/gpac.h"
#include "adapt/mpc.h"
#include "adapter/mpdash_adapter.h"
#include "core/mpdash_socket.h"
#include "dash/server.h"
#include "fault/injector.h"
#include "http/client.h"
#include "mptcp/connection.h"
#include "sim/snapshotter.h"

namespace mpdash {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kWifiOnly: return "wifi-only";
    case Scheme::kBaseline: return "baseline";
    case Scheme::kMpDashDuration: return "mpdash-duration";
    case Scheme::kMpDashRate: return "mpdash-rate";
  }
  return "unknown";
}

bool scheme_uses_mpdash(Scheme s) {
  return s == Scheme::kMpDashDuration || s == Scheme::kMpDashRate;
}

std::unique_ptr<RateAdaptation> make_adaptation(const std::string& name) {
  if (name == "gpac") return std::make_unique<GpacAdaptation>();
  if (name == "festive") return std::make_unique<FestiveAdaptation>();
  if (name == "bba") return std::make_unique<BbaAdaptation>();
  if (name == "bba-c") {
    BbaConfig cfg;
    cfg.cellular_friendly = true;
    return std::make_unique<BbaAdaptation>(cfg);
  }
  if (name == "mpc") return std::make_unique<MpcAdaptation>();
  throw std::invalid_argument("unknown adaptation: " + name);
}

namespace {

// The paper reports bitrate statistics over the last 80 % of chunks
// (steady state): the first 20 % are skipped.
constexpr double kSteadySkipFraction = 0.2;

// Scopes run_streaming_session's telemetry wiring to the call, on every
// exit path including the WatchdogTripped unwind: the trace collector
// leaves the context it joined, and a scenario wired to the internal
// context is unhooked (the scenario and its event loop outlive the run).
struct WiringGuard {
  Scenario& scenario;
  Telemetry* telemetry;
  TraceSink* collector;  // null when not recording
  bool internal;

  ~WiringGuard() {
    if (collector != nullptr) telemetry->remove_sink(collector);
    if (internal) scenario.set_telemetry(nullptr);
  }
};

// Samples per-interface delivered bytes every 100 ms for the energy model;
// stops itself once `done` flips.
class EnergyProbe {
 public:
  // Events are timestamped relative to `base` (construction time) so the
  // energy model's horizon starts at the measured transfer, not at
  // simulation time zero.
  EnergyProbe(Scenario& scenario, const bool& done)
      : scenario_(scenario), done_(done), base_(scenario.loop().now()) {
    prev_ = read();
    arm();
  }

  std::vector<ByteEvent> wifi_events;
  std::vector<ByteEvent> lte_events;

 private:
  struct Counters {
    Bytes wifi_down = 0, wifi_up = 0, lte_down = 0, lte_up = 0;
  };

  Counters read() const {
    Counters c;
    c.wifi_down = scenario_.wifi().downlink().delivered_bytes();
    c.wifi_up = scenario_.wifi().uplink().delivered_bytes();
    if (NetPath* lte = scenario_.cellular()) {
      c.lte_down = lte->downlink().delivered_bytes();
      c.lte_up = lte->uplink().delivered_bytes();
    }
    return c;
  }

  void arm() {
    scenario_.loop().schedule_in(milliseconds(100), [this] {
      const TimePoint now = scenario_.loop().now() - base_;
      const Counters cur = read();
      if (cur.wifi_down > prev_.wifi_down) {
        wifi_events.push_back({now, cur.wifi_down - prev_.wifi_down, true});
      }
      if (cur.wifi_up > prev_.wifi_up) {
        wifi_events.push_back({now, cur.wifi_up - prev_.wifi_up, false});
      }
      if (cur.lte_down > prev_.lte_down) {
        lte_events.push_back({now, cur.lte_down - prev_.lte_down, true});
      }
      if (cur.lte_up > prev_.lte_up) {
        lte_events.push_back({now, cur.lte_up - prev_.lte_up, false});
      }
      prev_ = cur;
      if (!done_) arm();
    });
  }

  Scenario& scenario_;
  const bool& done_;
  TimePoint base_;
  Counters prev_;
};

}  // namespace

struct StreamingRun::Tenant {
  TimePoint join{};
  // This tenant's flow's views of every scenario path.
  std::vector<NetPath> paths;
  std::unique_ptr<MptcpConnection> conn;
  std::unique_ptr<DashServer> server;
  std::unique_ptr<HttpClient> client;
  std::unique_ptr<RateAdaptation> adaptation;
  std::unique_ptr<MpDashSocket> socket;
  std::unique_ptr<MpDashAdapter> adapter;
  std::unique_ptr<DashPlayer> player;
  TimePoint finish{};

  Bytes wire_bytes(int path_id) const {
    for (const NetPath& p : paths) {
      if (p.id() == path_id) return p.delivered_wire_bytes();
    }
    return 0;
  }
};

StreamingRun::StreamingRun(Scenario& scenario, const Video& video,
                           const std::vector<RunTenant>& tenants,
                           const FaultPlan* faults, Telemetry* telemetry)
    : scenario_(scenario) {
  EventLoop& loop = scenario.loop();
  if (telemetry) scenario.set_telemetry(telemetry);

  // Tenants build in order; flow i is tenant i.
  tenants_.reserve(tenants.size());
  for (const RunTenant& spec : tenants) {
    const SessionConfig& config = spec.config;
    Telemetry* tel = spec.telemetry;
    auto t = std::make_unique<Tenant>();
    t->join = spec.join;
    const int flow = static_cast<int>(tenants_.size());
    for (NetPath* p : scenario.paths()) t->paths.push_back(p->for_flow(flow));
    std::vector<NetPath*> paths;
    for (NetPath& p : t->paths) paths.push_back(&p);
    if (config.scheme == Scheme::kWifiOnly) {
      paths.resize(1);  // single-path TCP over WiFi
    }
    t->conn = std::make_unique<MptcpConnection>(loop, paths);
    t->conn->server().set_scheduler(make_scheduler(config.mptcp_scheduler));
    if (tel) t->conn->set_telemetry(tel);

    if (config.mptcp_recovery.max_consecutive_rtos > 0) {
      t->conn->server().set_failure_policy(config.mptcp_recovery);
      t->conn->client().set_failure_policy(config.mptcp_recovery);
    }

    t->server = std::make_unique<DashServer>(t->conn->server(), video);
    HttpClientConfig hcfg = config.http_recovery;
    // A prefetching player needs the transport to pipeline as deep as the
    // player's in-flight window; never shrink an explicit wider setting.
    hcfg.max_pipeline =
        std::max(hcfg.max_pipeline, config.player.max_inflight_chunks);
    t->client = std::make_unique<HttpClient>(loop, t->conn->client(), hcfg);
    if (tel) t->client->set_telemetry(tel);

    t->adaptation = make_adaptation(config.adaptation);

    if (scheme_uses_mpdash(config.scheme)) {
      MpDashSocketConfig scfg;
      scfg.scheduler.alpha = config.alpha;
      scfg.scheduler.enable_debounce_ticks = config.debounce_ticks;
      t->socket = std::make_unique<MpDashSocket>(loop, *t->conn, scfg);
      if (tel) t->socket->set_telemetry(tel);
      AdapterConfig acfg;
      acfg.policy = config.scheme == Scheme::kMpDashDuration
                        ? DeadlinePolicy::kDurationBased
                        : DeadlinePolicy::kRateBased;
      t->adapter =
          std::make_unique<MpDashAdapter>(*t->socket, *t->adaptation, acfg);
    }

    t->player = std::make_unique<DashPlayer>(loop, *t->client, *t->adaptation,
                                             config.player, t->adapter.get());
    if (tel) t->player->set_telemetry(tel);
    Tenant* raw = t.get();
    t->player->set_done_callback([this, raw, &loop] {
      raw->finish = loop.now();
      finished_ = ++done_ == tenants_.size();
    });
    tenants_.push_back(std::move(t));
  }

  if (faults != nullptr && !faults->empty()) {
    injector_ = std::make_unique<FaultInjector>(loop, *faults);
    // Faults address path ids, and the scenario's own views front the
    // same links every tenant's views do.
    for (NetPath* p : scenario.paths()) injector_->attach_path(p);
    FaultInjector::ServerHooks hooks;
    hooks.set_stalled = [this](bool on) {
      for (auto& t : tenants_) t->server->http().set_stalled(on);
    };
    hooks.set_dropping = [this](bool on) {
      for (auto& t : tenants_) t->server->http().set_dropping(on);
    };
    injector_->set_server_hooks(std::move(hooks));
    if (telemetry) injector_->set_telemetry(telemetry);
    injector_->arm();
  }
}

StreamingRun::~StreamingRun() = default;

void StreamingRun::run(Duration time_limit, const WatchdogConfig& watchdog) {
  EventLoop& loop = scenario_.loop();
  // A tenant due now starts directly, with no join event. The later joins
  // are scheduled first, so every event a start schedules orders after
  // them, the order join events would give.
  for (auto& t : tenants_) {
    if (t->join > loop.now()) {
      DashPlayer* player = t->player.get();
      loop.schedule_at(t->join, [player] { player->start(); });
    }
  }
  // Armed last so budget accounting starts at the run boundary; the RAII
  // guard clears the loop's hook on every exit path, including the
  // WatchdogTripped unwind itself.
  RunWatchdog guard(loop, watchdog);
  for (auto& t : tenants_) {
    if (t->join <= loop.now()) t->player->start();
  }
  loop.run_until(TimePoint(time_limit));
}

SessionResult StreamingRun::collect(int tenant) const {
  const Tenant& t = *tenants_[static_cast<std::size_t>(tenant)];
  const DashPlayer& player = *t.player;
  SessionResult res;
  res.completed = player.done();
  res.session_s =
      to_seconds((res.completed ? t.finish : scenario_.loop().now()) - t.join);

  res.wifi_bytes = t.wire_bytes(kWifiPathId);
  res.cell_bytes = t.wire_bytes(kCellularPathId);
  const Bytes total = res.wifi_bytes + res.cell_bytes;
  res.cell_fraction = total > 0 ? static_cast<double>(res.cell_bytes) /
                                      static_cast<double>(total)
                                : 0.0;

  res.stalls = player.stall_count();
  res.stall_s = to_seconds(player.total_stall_time());
  res.switches = player.quality_switches();
  res.chunk_log = player.chunks();
  res.chunks = static_cast<int>(res.chunk_log.size());
  if (t.socket) res.deadline_misses = t.socket->deadline_misses();
  if (t.adapter) res.chunks_engaged = t.adapter->chunks_engaged();

  MptcpConnection& conn = *t.conn;
  res.subflow_failures = static_cast<int>(conn.server().subflow_failures() +
                                          conn.client().subflow_failures());
  res.subflow_revivals = static_cast<int>(conn.server().subflow_revivals() +
                                          conn.client().subflow_revivals());
  res.reinjected_packets =
      static_cast<int>(conn.server().reinjected_packets() +
                       conn.client().reinjected_packets());
  res.reinject_backlog =
      conn.server().reinject_backlog() + conn.client().reinject_backlog();
  res.http_timeouts = static_cast<int>(t.client->timeouts());
  res.http_retries = static_cast<int>(t.client->retries_sent());
  res.chunk_retries = player.chunk_retries();
  res.chunks_abandoned = player.chunks_abandoned();
  res.manifest_failed = player.manifest_failed();
  res.server_data_seq_high = conn.server().data_seq_high();
  res.client_bytes_in_order = conn.client().bytes_received_in_order();
  res.client_data_seq_high = conn.client().data_seq_high();
  res.server_bytes_in_order = conn.server().bytes_received_in_order();

  if (!res.chunk_log.empty() && player.video()) {
    const Video& v = *player.video();
    double sum_all = 0.0, sum_steady = 0.0;
    const std::size_t skip = static_cast<std::size_t>(
        kSteadySkipFraction * static_cast<double>(res.chunk_log.size()));
    std::size_t steady_n = 0;
    for (std::size_t i = 0; i < res.chunk_log.size(); ++i) {
      const double mbps =
          v.level(res.chunk_log[i].level).avg_bitrate.as_mbps();
      sum_all += mbps;
      if (i >= skip) {
        sum_steady += mbps;
        ++steady_n;
      }
    }
    res.avg_bitrate_mbps = sum_all / static_cast<double>(res.chunk_log.size());
    res.steady_avg_bitrate_mbps =
        steady_n > 0 ? sum_steady / static_cast<double>(steady_n) : 0.0;
  }
  return res;
}

SessionResult run_streaming_session(Scenario& scenario, const Video& video,
                                    const SessionConfig& config,
                                    const SessionEnv& env) {
  Telemetry local_telemetry;
  Telemetry* telemetry = env.telemetry;
  if (!telemetry && (config.record_trace || env.metrics)) {
    telemetry = &local_telemetry;
  }
  TraceCollector collector;
  const bool recording = telemetry != nullptr && config.record_trace;
  if (recording) {
    // The analyzer reconstructs HTTP framing from delivered payload.
    telemetry->set_capture_payload(true);
    telemetry->add_sink(&collector);
  }
  const WiringGuard guard{scenario, telemetry, recording ? &collector : nullptr,
                          telemetry == &local_telemetry};

  StreamingRun run(scenario, video, {RunTenant{config, kTimeZero, telemetry}},
                   env.faults, telemetry);
  EnergyProbe probe(scenario, run.finished());
  std::unique_ptr<MetricsSnapshotter> snapshotter;
  if (telemetry && env.metrics) {
    snapshotter = std::make_unique<MetricsSnapshotter>(
        scenario.loop(), *telemetry, *env.metrics, config.metrics_interval,
        run.finished());
  }
  run.run(config.time_limit, config.watchdog);

  SessionResult res = run.collect(0);
  if (const FaultInjector* injector = run.faults()) {
    res.faults_started = injector->faults_started();
    res.faults_skipped = injector->faults_skipped();
    res.faults_quiescent = injector->quiescent();
  }
  if (recording) res.trace = collector.take();

  const Duration horizon = seconds(res.session_s);
  const SessionEnergy energy = price_session(
      config.device, probe.wifi_events, probe.lte_events, horizon);
  res.wifi_energy_j = energy.wifi.total_j();
  res.lte_energy_j = energy.lte.total_j();
  return res;
}

DownloadResult run_download_session(Scenario& scenario,
                                    const DownloadConfig& config) {
  EventLoop& loop = scenario.loop();
  MptcpConnection conn(loop, scenario.paths());
  conn.server().set_scheduler(make_scheduler(config.mptcp_scheduler));
  if (config.telemetry) {
    scenario.set_telemetry(config.telemetry);
    conn.set_telemetry(config.telemetry);
  }

  // A bare file server: the target selects the virtual body size.
  HttpServer server(conn.server(), [&config](const HttpRequest& req) {
    HttpResponse resp;
    resp.headers.push_back({"Content-Type", "application/octet-stream"});
    resp.body_len = req.target == "/warmup" ? config.warmup_size : config.size;
    return resp;
  });
  HttpClient client(loop, conn.client());
  if (config.telemetry) client.set_telemetry(config.telemetry);

  std::unique_ptr<MpDashSocket> socket;
  if (config.use_mpdash) {
    MpDashSocketConfig scfg;
    scfg.scheduler.alpha = config.alpha;
    socket = std::make_unique<MpDashSocket>(loop, conn, scfg);
    if (config.telemetry) socket->set_telemetry(config.telemetry);
  }

  if (config.warmup) {
    bool warmed = false;
    client.get("/warmup", [&warmed](const HttpTransfer&) { warmed = true; });
    loop.run_until(TimePoint(seconds(30.0)));
    if (!warmed) return DownloadResult{};  // network unusable
  }
  const TimePoint start = loop.now();
  const Bytes wifi_before = scenario.wifi_bytes();
  const Bytes cell_before = scenario.cellular_bytes();

  bool done = false;
  DownloadResult res;
  EnergyProbe probe(scenario, done);

  if (socket) socket->enable(config.size, config.deadline);
  client.get("/file", [&](const HttpTransfer& transfer) {
    done = true;
    res.completed = true;
    res.finish_time = Duration(transfer.completed - start);
  });
  loop.run_until(start + config.time_limit);

  res.deadline_missed = res.completed && res.finish_time > config.deadline;
  res.wifi_bytes = scenario.wifi_bytes() - wifi_before;
  res.cell_bytes = scenario.cellular_bytes() - cell_before;

  const Duration horizon =
      res.completed ? res.finish_time + seconds(1.0) : config.time_limit;
  const SessionEnergy energy = price_session(
      config.device, probe.wifi_events, probe.lte_events, horizon);
  res.wifi_energy_j = energy.wifi.total_j();
  res.lte_energy_j = energy.lte.total_j();
  const SessionEnergy transfer_only =
      price_session(config.device, probe.wifi_events, probe.lte_events,
                    res.completed ? res.finish_time : config.time_limit);
  res.transfer_energy_j = transfer_only.total_j();
  return res;
}

}  // namespace mpdash
