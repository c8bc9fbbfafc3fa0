// Chaos triage subsystem: run watchdogs (sim-event + wall-clock budgets),
// lossless FaultPlan / repro-bundle JSON, deterministic repro replay, and
// the delta-debugging shrinker, for chaos sessions and fleets alike.
//
// Determinism is the contract under test everywhere here: watchdog trips
// must be bitwise reproducible, bundles must re-serialize byte-identical,
// replays must reproduce the original violation strings, and shrinking
// must give the same minimized bundle for any --jobs count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/chaos.h"
#include "exp/fleet.h"
#include "exp/repro.h"
#include "exp/shrink.h"
#include "fault/fault.h"
#include "fault/fault_json.h"
#include "runner/campaign.h"
#include "runner/watchdog.h"
#include "sim/event_loop.h"
#include "telemetry/telemetry.h"
#include "util/json.h"

namespace mpdash {
namespace {

FaultEvent make_event(FaultKind kind, double at_s, double dur_s, int path,
                      double value = 0.0) {
  FaultEvent e;
  e.kind = kind;
  e.at = kTimeZero + seconds(at_s);
  e.duration = seconds(dur_s);
  e.path_id = path;
  e.value = value;
  return e;
}

// --- FaultPlan JSON ------------------------------------------------------

TEST(FaultPlanJson, RandomPlansRoundTripBitwise) {
  RandomPlanConfig cfg;
  cfg.num_events = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = random_fault_plan(seed, cfg);
    const std::string text = fault_plan_to_json(plan);

    FaultPlan parsed;
    std::string err;
    ASSERT_TRUE(fault_plan_from_json(text, &parsed, &err)) << err;
    ASSERT_EQ(parsed.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      EXPECT_EQ(parsed.events[i].kind, plan.events[i].kind);
      EXPECT_EQ(parsed.events[i].at, plan.events[i].at);
      EXPECT_EQ(parsed.events[i].duration, plan.events[i].duration);
      EXPECT_EQ(parsed.events[i].path_id, plan.events[i].path_id);
      EXPECT_EQ(parsed.events[i].value, plan.events[i].value);  // bitwise
    }
    // serialize -> parse -> re-serialize is byte-identical.
    EXPECT_EQ(fault_plan_to_json(parsed), text) << "seed " << seed;
  }
}

TEST(FaultPlanJson, AllKindsAndAwkwardDoublesRoundTrip) {
  FaultPlan plan;
  plan.events.push_back(make_event(FaultKind::kBlackout, 1.0, 2.0, 0));
  plan.events.push_back(make_event(FaultKind::kFlap, 3.0, 4.0, 1, 0.1 + 0.2));
  FaultEvent burst = make_event(FaultKind::kLossBurst, 5.0, 6.0, 0);
  burst.ge = {1.0 / 3.0, 0.1, 0.0, 123456.789012345};
  plan.events.push_back(burst);
  plan.events.push_back(
      make_event(FaultKind::kRttSpike, 7.0, 8.0, 1, 632.776));
  plan.events.push_back(
      make_event(FaultKind::kRateCollapse, 9.0, 10.0, 0, 1e-9));
  plan.events.push_back(make_event(FaultKind::kServerStall, 11.0, 12.0, -1));
  plan.events.push_back(make_event(FaultKind::kServerReset, 13.0, 14.0, -1));

  const std::string text = fault_plan_to_json(plan);
  FaultPlan parsed;
  std::string err;
  ASSERT_TRUE(fault_plan_from_json(text, &parsed, &err)) << err;
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  EXPECT_EQ(parsed.events[2].ge.p_good_to_bad, 1.0 / 3.0);
  EXPECT_EQ(parsed.events[1].value, 0.1 + 0.2);
  EXPECT_EQ(fault_plan_to_json(parsed), text);
}

TEST(FaultPlanJson, RejectsMalformedInput) {
  FaultPlan plan;
  std::string err;
  EXPECT_FALSE(fault_plan_from_json("", &plan, &err));
  EXPECT_FALSE(fault_plan_from_json("{", &plan, &err));
  EXPECT_FALSE(fault_plan_from_json("[]", &plan, &err));
  EXPECT_FALSE(fault_plan_from_json("{\"events\": 7}", &plan, &err));
  EXPECT_FALSE(fault_plan_from_json(
      "{\"events\":[{\"kind\":\"nope\",\"at_ns\":0,\"duration_ns\":0}]}",
      &plan, &err));
  EXPECT_FALSE(fault_plan_from_json(
      "{\"events\":[{\"at_ns\":0,\"duration_ns\":0}]}", &plan, &err));
  // Trailing garbage after a valid document is an error, not ignored.
  EXPECT_FALSE(fault_plan_from_json("{\"events\":[]} x", &plan, &err));
  EXPECT_FALSE(err.empty());
  // A fractional time or path id is refused, never cast: 7.356757643e9
  // would move the fault to t = 0, and 1.5 would aim it at path 1.
  const struct {
    const char* fields;
    const char* want;
  } casts[] = {
      {"\"at_ns\":7.356757643e9,\"duration_ns\":0", "at_ns"},
      {"\"at_ns\":0,\"duration_ns\":0,\"path\":1.5", "path"},
  };
  for (const auto& c : casts) {
    err.clear();
    const std::string text =
        std::string("{\"events\":[{\"kind\":\"blackout\",") + c.fields + "}]}";
    EXPECT_FALSE(fault_plan_from_json(text, &plan, &err)) << c.fields;
    EXPECT_EQ(err,
              std::string("fault event: missing or bad \"") + c.want + "\"");
  }
}

// --- watchdog ------------------------------------------------------------

// A zero-delay self-rescheduling event: the canonical livelock. Each
// event schedules a copy of itself and owns nothing, so the copy still
// pending when a watchdog aborts the run dies with the loop.
struct Livelock {
  EventLoop* loop;
  void operator()() const { loop->schedule_in(kDurationZero, *this); }
};

void livelock(EventLoop& loop) {
  loop.schedule_in(kDurationZero, Livelock{&loop});
}

TEST(Watchdog, SimEventBudgetKillsLivelock) {
  // Trip counts are a pure function of the event stream, so two identical
  // runs must produce byte-identical what() strings.
  auto trip = [] {
    EventLoop loop;
    livelock(loop);
    WatchdogConfig cfg;
    cfg.max_sim_events = 10000;
    cfg.poll_interval = 64;
    RunWatchdog watchdog(loop, cfg);
    EXPECT_TRUE(watchdog.armed());
    try {
      loop.run_until(kTimeZero + seconds(1.0));
    } catch (const WatchdogTripped& e) {
      EXPECT_EQ(e.reason(), WatchdogReason::kSimEvents);
      EXPECT_GE(e.sim_events(), 10000u);
      EXPECT_LT(e.sim_events(), 10064u);  // within one poll interval
      return std::string(e.what());
    }
    ADD_FAILURE() << "livelock was not killed";
    return std::string();
  };
  const std::string first = trip();
  EXPECT_NE(first.find("watchdog: sim-event budget exhausted ("),
            std::string::npos);
  EXPECT_EQ(trip(), first);
}

TEST(Watchdog, WallClockBudgetIsABackstop) {
  EventLoop loop;
  livelock(loop);
  WatchdogConfig cfg;
  cfg.max_wall_s = 1e-9;  // any real work exceeds a nanosecond
  cfg.max_sim_events = 50'000'000;  // bounded even if wall never trips
  cfg.poll_interval = 256;
  RunWatchdog watchdog(loop, cfg);
  try {
    loop.run_until(kTimeZero + seconds(1.0));
    FAIL() << "livelock was not killed";
  } catch (const WatchdogTripped& e) {
    EXPECT_EQ(e.reason(), WatchdogReason::kWallClock);
    EXPECT_STREQ(e.what(),
                 "watchdog: wall-clock budget exceeded (0.000 s)");
  }
}

TEST(Watchdog, DisabledConfigNeverArms) {
  EventLoop loop;
  int runs = 0;
  loop.schedule_in(seconds(1.0), [&runs] { ++runs; });
  {
    RunWatchdog watchdog(loop, WatchdogConfig{});
    EXPECT_FALSE(watchdog.armed());
    loop.run();
  }
  EXPECT_EQ(runs, 1);
}

TEST(Watchdog, HookClearedOnScopeExit) {
  EventLoop loop;
  {
    WatchdogConfig cfg;
    cfg.max_sim_events = 1;
    cfg.poll_interval = 1;
    RunWatchdog watchdog(loop, cfg);
  }
  // Budget would trip on the second event if the hook survived the scope.
  for (int i = 0; i < 8; ++i) loop.schedule_in(kDurationZero, [] {});
  EXPECT_NO_THROW(loop.run());
  EXPECT_EQ(loop.executed_events(), 8u);
}

// --- repro bundles -------------------------------------------------------

ReproBundle sample_bundle() {
  ReproBundle b;
  b.seed = 0xDEADBEEFull;
  b.spec.scheme = Scheme::kMpDashDuration;
  b.spec.adaptation = "bba";
  b.spec.mptcp_scheduler = "roundrobin";
  b.chunk_count = 6;
  b.spec.inflight = 3;
  b.spec.recovery = false;
  b.spec.time_limit = seconds(30.0);
  b.spec.watchdog = WatchdogConfig{12345, 0.25, 512};
  b.plan.events.push_back(make_event(FaultKind::kServerStall, 2.0, 26.0, -1));
  b.plan.events.push_back(
      make_event(FaultKind::kRttSpike, 3.0, 1.0, 1, 0.1 + 0.2));
  b.outcome = RunOutcome::kViolation;
  b.hung_reason = "";
  b.expected_violations = {
      "session hung: time limit reached before playback finished",
      "with \"quotes\", commas,\nand a newline"};
  return b;
}

TEST(ReproBundleJson, RoundTripsBitwise) {
  const ReproBundle b = sample_bundle();
  const std::string text = repro_bundle_to_json(b);

  ReproBundle parsed;
  std::string err;
  ASSERT_TRUE(repro_bundle_from_json(text, &parsed, &err)) << err;
  EXPECT_EQ(parsed.seed, b.seed);
  EXPECT_EQ(parsed.spec, b.spec);
  EXPECT_EQ(parsed.chunk_count, b.chunk_count);
  ASSERT_EQ(parsed.plan.events.size(), b.plan.events.size());
  EXPECT_EQ(parsed.outcome, b.outcome);
  EXPECT_EQ(parsed.expected_violations, b.expected_violations);
  EXPECT_EQ(repro_bundle_to_json(parsed), text);
}

TEST(ReproBundleJson, RejectsWrongKindAndSchema) {
  ReproBundle parsed;
  std::string err;
  EXPECT_FALSE(repro_bundle_from_json("{}", &parsed, &err));
  EXPECT_FALSE(repro_bundle_from_json("not json at all", &parsed, &err));
  std::string text = repro_bundle_to_json(sample_bundle());
  const std::string needle = "\"schema\": 2";
  text.replace(text.find(needle), needle.size(), "\"schema\": 99");
  EXPECT_FALSE(repro_bundle_from_json(text, &parsed, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(ReproBundleJson, RejectsChunkCountOutOfRange) {
  // Bundles are input from outside the program: a run needs a chunk, and
  // the count must fit an int rather than wrap into one.
  auto parse_with = [](const std::string& needle,
                       const std::string& replacement) {
    std::string text = repro_bundle_to_json(sample_bundle());
    text.replace(text.find(needle), needle.size(), replacement);
    ReproBundle parsed;
    std::string err;
    EXPECT_FALSE(repro_bundle_from_json(text, &parsed, &err)) << replacement;
    return err;
  };
  for (const char* count : {"0", "-3", "4294967297"}) {
    const std::string err = parse_with(
        "\"chunk_count\": 6", std::string("\"chunk_count\": ") + count);
    EXPECT_NE(err.find("chunk_count"), std::string::npos) << err;
  }
  // So must the spec's network: a rate or time limit out of range would
  // replay some other run.
  EXPECT_EQ(parse_with("\"wifi_mbps\": 5", "\"wifi_mbps\": -5"),
            "bundle: \"scenario.wifi_mbps\" must be > 0");
  EXPECT_EQ(parse_with("\"lte_mbps\": 4", "\"lte_mbps\": 0"),
            "bundle: \"scenario.lte_mbps\" must be > 0");
  EXPECT_EQ(parse_with("\"time_limit_ns\": 30000000000",
                       "\"time_limit_ns\": 0"),
            "bundle: \"time_limit_ns\" must be > 0");
}

// A hand-built plan that deterministically violates: the origin holds
// every response for most of a session too short to finish afterwards,
// with recovery off so nothing times the requests out.
ReproBundle stalled_session_bundle() {
  ReproBundle b;
  b.seed = 7;
  b.chunk_count = 6;
  b.spec.recovery = false;
  b.spec.time_limit = seconds(30.0);
  b.plan.events.push_back(make_event(FaultKind::kServerStall, 2.0, 26.0, -1));
  return b;
}

TEST(Repro, DeterministicViolationReplaysBitwise) {
  ReproBundle b = stalled_session_bundle();
  // First run: capture what this plan actually does.
  Telemetry telemetry;
  const BundleRun run = run_repro_bundle(b, telemetry);
  ASSERT_EQ(run.outcome, RunOutcome::kViolation);
  ASSERT_FALSE(run.violations.empty());
  EXPECT_NE(run.violations[0].find("session hung"), std::string::npos);

  b.outcome = run.outcome;
  b.expected_violations = run.violations;

  // Replays reproduce the identical outcome and violation strings.
  const ReplayResult first = replay_repro_bundle(b);
  EXPECT_TRUE(first.matches) << (first.mismatches.empty()
                                     ? ""
                                     : first.mismatches[0]);
  const ReplayResult second = replay_repro_bundle(b);
  EXPECT_TRUE(second.matches);
  EXPECT_EQ(first.run.fingerprint, second.run.fingerprint);
}

TEST(Repro, CampaignEmitsLoadableBundlesForNonOkRuns) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mpdash_triage_bundles";
  std::filesystem::remove_all(dir);

  ChaosConfig cfg;
  cfg.seed_count = 4;
  cfg.chunk_count = 6;
  // A time limit shorter than the content guarantees every run violates
  // ("session hung"), so bundle emission is deterministic.
  cfg.session.time_limit = seconds(5.0);
  cfg.progress = nullptr;
  cfg.bundle_dir = dir.string();
  const ChaosCampaignResult res = run_chaos_campaign(cfg);

  const OutcomeCounts oc = res.outcome_counts();
  EXPECT_EQ(oc.violation, 4);
  EXPECT_FALSE(res.clean());

  int bundles = 0;
  for (const ChaosRunResult& r : res.runs) {
    const std::string path = repro_bundle_path(dir.string(), r.seed);
    ReproBundle b;
    std::string err;
    ASSERT_TRUE(load_repro_bundle(path, &b, &err)) << path << ": " << err;
    ++bundles;
    EXPECT_EQ(b.seed, r.seed);
    EXPECT_EQ(b.outcome, r.outcome);
    EXPECT_EQ(b.expected_violations, r.violations);
    const ReplayResult replay = replay_repro_bundle(b);
    EXPECT_TRUE(replay.matches)
        << path << ": "
        << (replay.mismatches.empty() ? "" : replay.mismatches[0]);
  }
  EXPECT_EQ(bundles, oc.bad());
  std::filesystem::remove_all(dir);
}

// --- hung-run quarantine -------------------------------------------------

TEST(Chaos, InjectedLivelockIsQuarantinedJobsInvariantly) {
  ChaosConfig cfg;
  cfg.seed_count = 6;
  cfg.chunk_count = 4;
  cfg.progress = nullptr;
  // Budget far above a normal 4-chunk run, so only the injected livelock
  // can exhaust it; poll often enough that the test stays fast.
  cfg.session.watchdog = WatchdogConfig{2'000'000, 0.0, 256};
  const std::uint64_t hung_seed = derive_run_seed(cfg.base_seed, "chaos/3");
  cfg.pre_session_hook = [hung_seed](EventLoop& loop, std::uint64_t seed) {
    if (seed == hung_seed) livelock(loop);
  };

  auto campaign_at = [&cfg](int jobs) {
    cfg.jobs = jobs;
    return run_chaos_campaign(cfg);
  };
  const ChaosCampaignResult serial = campaign_at(1);
  const ChaosCampaignResult parallel = campaign_at(8);

  // The campaign completed — all six runs reported, exactly one hung.
  ASSERT_EQ(serial.runs.size(), 6u);
  const OutcomeCounts oc = serial.outcome_counts();
  EXPECT_EQ(oc.hung, 1);
  EXPECT_EQ(oc.ok + oc.violation, 5);
  EXPECT_EQ(oc.crashed, 0);
  const ChaosRunResult& hung = serial.runs[3];
  EXPECT_EQ(hung.outcome, RunOutcome::kHung);
  EXPECT_EQ(hung.seed, hung_seed);
  EXPECT_NE(hung.hung_reason.find("sim-event budget exhausted"),
            std::string::npos);
  EXPECT_FALSE(serial.clean());

  // Quarantine is jobs-invariant: identical digests (the hung run's
  // fingerprint included) for any worker count.
  EXPECT_EQ(serial.digest(), parallel.digest());
  const OutcomeCounts poc = parallel.outcome_counts();
  EXPECT_EQ(poc.hung, oc.hung);
  EXPECT_EQ(poc.violation, oc.violation);
  EXPECT_EQ(poc.ok, oc.ok);
}

// --- shrinker ------------------------------------------------------------

TEST(Signature, CanonicalKindsDropRunSpecificDetail) {
  EXPECT_EQ(violation_kind(
                "chunk accounting: delivered 3 + abandoned 1 != 6"),
            "chunk accounting");
  EXPECT_EQ(violation_kind(
                "session hung: time limit reached before playback finished"),
            "session hung");
  EXPECT_EQ(violation_kind("counter player.chunks = 3, result chunks = 4"),
            "counter mismatch");
  EXPECT_EQ(violation_kind("2 fault events had no attachable target"),
            "fault target missing");
  EXPECT_EQ(violation_kind("span 9 reopened after close at t=1.5"),
            "span reopened");
  EXPECT_EQ(violation_kind("something entirely new"),
            "something entirely new");

  // Signature: outcome + sorted unique kinds; counts don't matter.
  const std::vector<std::string> a = {
      "chunk accounting: delivered 3 + abandoned 1 != 6",
      "session hung: time limit reached before playback finished"};
  const std::vector<std::string> b = {
      "session hung: time limit reached before playback finished",
      "chunk accounting: delivered 5 + abandoned 0 != 6"};
  EXPECT_EQ(violation_signature(RunOutcome::kViolation, a, false),
            violation_signature(RunOutcome::kViolation, b, false));
  EXPECT_NE(violation_signature(RunOutcome::kViolation, a, true),
            violation_signature(RunOutcome::kViolation, b, true));
  EXPECT_NE(violation_signature(RunOutcome::kHung, {}, false),
            violation_signature(RunOutcome::kOk, {}, false));
}

TEST(Signature, FleetTenantPrefixIsDropped) {
  // A fleet hoists tenant violations as "session <i>: ..."; which tenant
  // failed is run-specific detail, like the counts.
  EXPECT_EQ(violation_kind(
                "session 3: chunk accounting: delivered 3 + abandoned 0 != 6"),
            "chunk accounting");
  EXPECT_EQ(violation_kind("session 12: session hung: time limit reached "
                           "before playback finished"),
            "session hung");
  EXPECT_EQ(violation_kind("session 0: 2 fault events had no attachable "
                           "target"),
            "fault target missing");
  EXPECT_EQ(violation_kind("session 1: something entirely new"),
            "something entirely new");
  // Only a "session <digits>: " head is a tenant prefix.
  EXPECT_EQ(violation_kind(
                "session hung: time limit reached before playback finished"),
            "session hung");
  EXPECT_EQ(violation_kind("session x: odd"), "session x: odd");

  const std::vector<std::string> tenant0 = {
      "session 0: chunk accounting: delivered 4 + abandoned 0 != 6"};
  const std::vector<std::string> tenant3 = {
      "session 3: chunk accounting: delivered 2 + abandoned 0 != 6"};
  EXPECT_EQ(violation_signature(RunOutcome::kViolation, tenant0, false),
            violation_signature(RunOutcome::kViolation, tenant3, false));
  EXPECT_NE(violation_signature(RunOutcome::kViolation, tenant0, true),
            violation_signature(RunOutcome::kViolation, tenant3, true));
}

// Six-event plan: one server stall actually causes the hang; five benign
// short events are noise ddmin must discard.
ReproBundle noisy_bundle() {
  ReproBundle b = stalled_session_bundle();
  b.plan.events.push_back(
      make_event(FaultKind::kRttSpike, 4.0, 0.5, 0, 10.0));
  b.plan.events.push_back(make_event(FaultKind::kFlap, 6.0, 1.0, 1, 0.2));
  FaultEvent burst = make_event(FaultKind::kLossBurst, 8.0, 0.5, 0);
  burst.ge = {0.05, 0.5, 0.0, 0.1};
  b.plan.events.push_back(burst);
  b.plan.events.push_back(
      make_event(FaultKind::kRateCollapse, 10.0, 1.0, 1, 0.8));
  b.plan.events.push_back(
      make_event(FaultKind::kRttSpike, 12.0, 0.5, 1, 20.0));
  return b;
}

TEST(Shrink, MinimizesNoisyPlanToTheCulprit) {
  const ReproBundle bundle = noisy_bundle();
  ASSERT_EQ(bundle.plan.events.size(), 6u);

  ShrinkConfig cfg;
  cfg.jobs = 1;
  const ShrinkResult res = shrink_repro_bundle(bundle, cfg);

  EXPECT_TRUE(res.reproduced);
  EXPECT_EQ(res.initial_events, 6);
  EXPECT_LE(res.final_events, 2);  // the stall alone explains the hang
  // >= 50% reduction, the acceptance floor.
  EXPECT_LE(res.final_events * 2, res.initial_events);
  EXPECT_GT(res.sim_runs, 0);
  EXPECT_GT(res.steps, 0);
  EXPECT_FALSE(res.log.empty());
  // The culprit survived.
  ASSERT_FALSE(res.minimized.plan.events.empty());
  EXPECT_EQ(res.minimized.plan.events[0].kind, FaultKind::kServerStall);

  // The minimized bundle's rewritten expectations replay bitwise.
  const ReplayResult replay = replay_repro_bundle(res.minimized);
  EXPECT_TRUE(replay.matches)
      << (replay.mismatches.empty() ? "" : replay.mismatches[0]);
}

TEST(Shrink, DeterministicAcrossRepeatsAndJobs) {
  const ReproBundle bundle = noisy_bundle();
  auto shrink_at = [&bundle](int jobs) {
    ShrinkConfig cfg;
    cfg.jobs = jobs;
    return shrink_repro_bundle(bundle, cfg);
  };
  const ShrinkResult first = shrink_at(1);
  const ShrinkResult repeat = shrink_at(1);
  const ShrinkResult parallel = shrink_at(4);

  // Same minimized bundle (bitwise) and same step log every time.
  EXPECT_EQ(repro_bundle_to_json(first.minimized),
            repro_bundle_to_json(repeat.minimized));
  EXPECT_EQ(first.log, repeat.log);
  EXPECT_EQ(first.sim_runs, repeat.sim_runs);
  EXPECT_EQ(repro_bundle_to_json(first.minimized),
            repro_bundle_to_json(parallel.minimized));
  EXPECT_EQ(first.log, parallel.log);
  EXPECT_EQ(first.sim_runs, parallel.sim_runs);
}

// Four tenants on the shared links, recovery off and a 30 s fleet horizon:
// the origin stall wedges every tenant, and three benign short events are
// noise. Expectations are recorded from a real run.
ReproBundle stalled_fleet_bundle() {
  ReproBundle b;
  b.seed = 7;
  FleetConfig fleet;
  fleet.sessions = 4;
  fleet.chunk_count = 6;
  fleet.time_limit = seconds(30.0);
  SessionSpec tenant;
  tenant.recovery = false;
  fleet.mix = {tenant};
  b.fleet = fleet;
  b.plan.events.push_back(make_event(FaultKind::kServerStall, 2.0, 26.0, -1));
  b.plan.events.push_back(
      make_event(FaultKind::kRttSpike, 4.0, 0.5, 0, 10.0));
  b.plan.events.push_back(make_event(FaultKind::kFlap, 6.0, 1.0, 1, 0.2));
  b.plan.events.push_back(
      make_event(FaultKind::kRateCollapse, 10.0, 1.0, 1, 0.8));
  Telemetry telemetry;
  const BundleRun run = run_repro_bundle(b, telemetry);
  b.outcome = run.outcome;
  b.hung_reason = run.hung_reason;
  b.expected_violations = run.violations;
  return b;
}

TEST(Shrink, FleetPlanShrinksToTheStallJobsInvariantly) {
  const ReproBundle bundle = stalled_fleet_bundle();
  ASSERT_EQ(bundle.outcome, RunOutcome::kViolation);
  ASSERT_FALSE(bundle.expected_violations.empty());
  auto shrink_at = [&bundle](int jobs) {
    ShrinkConfig cfg;
    cfg.jobs = jobs;
    return shrink_repro_bundle(bundle, cfg);
  };
  const ShrinkResult serial = shrink_at(1);

  EXPECT_TRUE(serial.reproduced);
  EXPECT_EQ(serial.initial_events, 4);
  EXPECT_LE(serial.final_events, 2);
  ASSERT_TRUE(serial.minimized.fleet.has_value());
  ASSERT_FALSE(serial.minimized.plan.events.empty());
  EXPECT_EQ(serial.minimized.plan.events[0].kind, FaultKind::kServerStall);

  // The minimized fleet bundle's rewritten expectations replay bitwise.
  const ReplayResult replay = replay_repro_bundle(serial.minimized);
  EXPECT_TRUE(replay.matches)
      << (replay.mismatches.empty() ? "" : replay.mismatches[0]);

  const ShrinkResult parallel = shrink_at(4);
  EXPECT_EQ(repro_bundle_to_json(serial.minimized),
            repro_bundle_to_json(parallel.minimized));
  EXPECT_EQ(serial.log, parallel.log);

  // Why ddmin stays on fault events: FleetConfig can only drop tenants
  // from the end, and here the failing tenants are the last two.
  EXPECT_EQ(bundle.expected_violations.front().rfind("session 2: ", 0), 0u);
  ReproBundle prefix = bundle;
  prefix.fleet->sessions = 2;
  Telemetry telemetry;
  EXPECT_EQ(run_repro_bundle(prefix, telemetry).outcome, RunOutcome::kOk);
}

TEST(Shrink, CleanBundleReportsNothingToShrink) {
  ReproBundle b;  // no faults, generous time limit: the run is clean
  b.seed = 3;
  b.chunk_count = 4;
  const ShrinkResult res = shrink_repro_bundle(b, ShrinkConfig{});
  EXPECT_FALSE(res.reproduced);
  EXPECT_EQ(res.sim_runs, 1);  // just the baseline probe
}

// --- committed bundles ---------------------------------------------------
// Bundles exactly as the campaigns write them; each kind's on-disk layout
// must keep loading, re-serializing byte for byte, and replaying:
//   chaos_repro_schema2.json: `mpdash_sim chaos --seed-count 50 --seed 1
//     --no-recovery --keep-going --bundle-dir <dir>` (one of its bundles)
//   fleet_repro_schema1.json: `mpdash_sim fleet --sessions 4 --chunks 6
//     --seed-count 10 --seed 1 --chaos --no-recovery --wifi 1 --lte 0.5
//     --keep-going --bundle-dir <dir>` (its only bundle)

std::string read_fixture(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void expect_fixture_replays(const char* name, bool fleet) {
  const std::string path = std::string(MPDASH_TEST_DATA_DIR) + "/" + name;
  ReproBundle b;
  std::string err;
  ASSERT_TRUE(load_repro_bundle(path, &b, &err)) << path << ": " << err;
  EXPECT_EQ(b.fleet.has_value(), fleet);
  EXPECT_FALSE(b.expected_violations.empty());
  EXPECT_EQ(repro_bundle_to_json(b), read_fixture(path));
  const ReplayResult replay = replay_repro_bundle(b);
  EXPECT_TRUE(replay.matches)
      << (replay.mismatches.empty() ? "" : replay.mismatches[0]);
}

TEST(ReproFixture, ChaosSchema2BundleReplays) {
  expect_fixture_replays("chaos_repro_schema2.json", false);
}

TEST(ReproFixture, FleetSchema1BundleReplays) {
  expect_fixture_replays("fleet_repro_schema1.json", true);
}

}  // namespace
}  // namespace mpdash
