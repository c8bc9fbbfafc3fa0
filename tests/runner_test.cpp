// Determinism proofs for the campaign runner (src/runner): parallel
// execution must be bitwise-identical to serial, failures must stay
// isolated to their own run, and seed derivation must be stable under
// campaign edits. These are the guarantees every parallel bench relies on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/scenario.h"
#include "exp/session.h"
#include "runner/campaign.h"
#include "runner/thread_pool.h"
#include "util/stats.h"

using namespace mpdash;

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);

  // The pool stays usable after wait_idle().
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, WaitIdleWaitsForInflightTasks) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&count] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      count.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 32);
}

TEST(ResolveJobs, RequestedWinsAndAutoIsPositive) {
  EXPECT_EQ(resolve_jobs(4), 4);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
}

// Sets an environment variable for one scope, restoring what was there.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// MPDASH_JOBS reads like a --jobs value: "3x" is not 3 workers, and "abc"
// is not a silent fall-back to the hardware count.
TEST(ResolveJobs, MalformedEnvThrowsNamingTheVariable) {
  for (const char* bad : {"abc", "3x", "-1", ""}) {
    ScopedEnv env("MPDASH_JOBS", bad);
    try {
      resolve_jobs(0);
      ADD_FAILURE() << "MPDASH_JOBS='" << bad << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("MPDASH_JOBS"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ResolveJobs, EnvCountAndZeroMeansHardware) {
  const unsigned hw = std::thread::hardware_concurrency();
  {
    ScopedEnv env("MPDASH_JOBS", "2");
    EXPECT_EQ(resolve_jobs(0), 2);
    EXPECT_EQ(resolve_jobs(5), 5);  // an explicit count wins
  }
  {
    ScopedEnv env("MPDASH_JOBS", "0");
    EXPECT_EQ(resolve_jobs(0), hw > 0 ? static_cast<int>(hw) : 1);
  }
}

TEST(SeedDerivation, DependsOnCampaignSeedAndKeyOnly) {
  EXPECT_EQ(derive_run_seed(1, "a"), derive_run_seed(1, "a"));
  EXPECT_NE(derive_run_seed(1, "a"), derive_run_seed(2, "a"));
  EXPECT_NE(derive_run_seed(1, "a"), derive_run_seed(1, "b"));
  // Near-identical keys must land far apart (finalizer mixing).
  EXPECT_NE(derive_run_seed(1, "run-10") ^ derive_run_seed(1, "run-11"), 0u);
}

// Inserting a run must not reseed its neighbors: seeds derive from the
// run key, never from the position in the campaign.
TEST(SeedDerivation, InsertingARunDoesNotReseedNeighbors) {
  auto seeds_of = [](const std::vector<std::string>& keys) {
    Campaign<int> campaign("stability");
    for (const auto& k : keys) {
      campaign.add(k, [](RunContext&) { return 0; });
    }
    CampaignOptions opts;
    opts.jobs = 1;
    opts.progress = nullptr;
    const auto res = campaign.run(opts);
    std::vector<std::pair<std::string, std::uint64_t>> seeds;
    for (const auto& r : res.reports) seeds.emplace_back(r.key, r.seed);
    return seeds;
  };

  const auto before = seeds_of({"r00", "r01", "r02", "r03"});
  const auto after = seeds_of({"r00", "r01", "extra", "r02", "r03"});
  for (const auto& [key, seed] : before) {
    bool found = false;
    for (const auto& [k2, s2] : after) {
      if (k2 == key) {
        EXPECT_EQ(s2, seed) << "run '" << key << "' was reseeded";
        found = true;
      }
    }
    EXPECT_TRUE(found) << key;
  }
}

TEST(Campaign, ResultsStayInAddOrderUnderManyJobs) {
  Campaign<int> campaign("ordering");
  for (int i = 0; i < 24; ++i) {
    campaign.add("run-" + std::to_string(i), [i](RunContext&) {
      // Scramble completion order: early runs finish last.
      std::this_thread::sleep_for(std::chrono::milliseconds((24 - i) % 5));
      return i;
    });
  }
  CampaignOptions opts;
  opts.jobs = 8;
  opts.progress = nullptr;
  const auto res = campaign.run(opts);
  ASSERT_EQ(res.results.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(res.results[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(res.reports[static_cast<std::size_t>(i)].key,
              "run-" + std::to_string(i));
  }
  EXPECT_TRUE(res.all_ok());
  EXPECT_EQ(res.stats.runs, 24);
  EXPECT_EQ(res.stats.jobs, 8);
  EXPECT_GT(res.stats.wall_s, 0.0);
  EXPECT_GT(res.stats.run_wall_sum_s, 0.0);
}

// A campaign starts no more workers than it has runs, and reports the
// count it started.
TEST(Campaign, PoolNeverOutnumbersRuns) {
  Campaign<int> campaign("small");
  for (int i = 0; i < 3; ++i) {
    campaign.add("run-" + std::to_string(i), [i](RunContext&) { return i; });
  }
  CampaignOptions opts;
  opts.jobs = 16;
  opts.progress = nullptr;
  const auto res = campaign.run(opts);
  EXPECT_EQ(res.stats.jobs, 3);
  EXPECT_EQ(res.results, (std::vector<int>{0, 1, 2}));
}

// One throwing run reports and continues; it never poisons the rest.
TEST(Campaign, FailureIsolation) {
  Campaign<int> campaign("failures");
  for (int i = 0; i < 10; ++i) {
    campaign.add("run-" + std::to_string(i), [i](RunContext&) {
      if (i == 3) throw std::runtime_error("boom 3");
      if (i == 7) throw 42;  // non-std exception
      return i + 1;
    });
  }
  CampaignOptions opts;
  opts.jobs = 4;
  opts.progress = nullptr;
  const auto res = campaign.run(opts);

  EXPECT_FALSE(res.all_ok());
  EXPECT_EQ(res.stats.failures, 2);
  EXPECT_FALSE(res.reports[3].ok);
  EXPECT_NE(res.reports[3].error.find("boom 3"), std::string::npos);
  EXPECT_FALSE(res.reports[7].ok);
  EXPECT_EQ(res.reports[7].error, "unknown exception");
  // Failed runs keep the default-constructed result.
  EXPECT_EQ(res.results[3], 0);
  EXPECT_EQ(res.results[7], 0);
  for (int i = 0; i < 10; ++i) {
    if (i == 3 || i == 7) continue;
    EXPECT_TRUE(res.reports[static_cast<std::size_t>(i)].ok);
    EXPECT_EQ(res.results[static_cast<std::size_t>(i)], i + 1);
  }
  EXPECT_THROW(res.require_all_ok(), std::runtime_error);
}

namespace {

// A 20-run mini-campaign of real deadline downloads whose network rates
// derive from each run's seed. Returns (per-run serialization, aggregate
// CDF serialization) — both must be byte-identical for any job count.
struct MiniRun {
  std::string serialized;
  double finish_s = 0.0;
};

std::pair<std::string, std::string> run_mini_campaign(int jobs) {
  Campaign<MiniRun> campaign("mini", 7);
  for (int i = 0; i < 20; ++i) {
    campaign.add("dl-" + std::to_string(i), [](RunContext& ctx) {
      Rng rng = ctx.rng();
      const double wifi = 1.5 + 3.0 * rng.uniform();
      const double lte = 1.0 + 2.0 * rng.uniform();
      Scenario scenario(constant_scenario(DataRate::mbps(wifi),
                                          DataRate::mbps(lte)));
      DownloadConfig cfg;
      cfg.size = kilobytes(600);
      cfg.deadline = seconds(3.0);
      cfg.telemetry = &ctx.telemetry;  // private per-run metrics
      const DownloadResult res = run_download_session(scenario, cfg);

      MiniRun out;
      out.finish_s = to_seconds(res.finish_time);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s seed=%016llx finish=%.17g wifi=%lld cell=%lld "
                    "miss=%d energy=%.17g\n",
                    ctx.key.c_str(),
                    static_cast<unsigned long long>(ctx.seed), out.finish_s,
                    static_cast<long long>(res.wifi_bytes),
                    static_cast<long long>(res.cell_bytes),
                    res.deadline_missed ? 1 : 0, res.energy_j());
      out.serialized =
          buf +
          ctx.telemetry.metrics().snapshot(TimePoint(res.finish_time))
              .to_json() +
          "\n";
      return out;
    });
  }
  CampaignOptions opts;
  opts.jobs = jobs;
  opts.progress = nullptr;
  auto res = campaign.run(opts);
  res.require_all_ok();

  std::string per_run;
  std::vector<double> finishes;
  for (const MiniRun& r : res.results) {
    per_run += r.serialized;
    finishes.push_back(r.finish_s);
  }
  std::string cdf;
  for (const auto& [v, f] : empirical_cdf(finishes)) {
    char buf[80];
    std::snprintf(buf, sizeof buf, "%.17g %.17g\n", v, f);
    cdf += buf;
  }
  return {per_run, cdf};
}

}  // namespace

// The determinism proof: per-run metrics and the aggregate CDF are
// byte-identical between serial and 8-way execution.
TEST(Campaign, ParallelExecutionIsBitwiseIdenticalToSerial) {
  const auto serial = run_mini_campaign(1);
  const auto parallel = run_mini_campaign(8);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_FALSE(serial.first.empty());
  EXPECT_FALSE(serial.second.empty());
  // And the campaign is rerun-stable, not just order-stable.
  const auto again = run_mini_campaign(8);
  EXPECT_EQ(parallel.first, again.first);
}
