#include <gtest/gtest.h>

#include "core/online_simulator.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace mpdash {
namespace {

TEST(OnlineSim, WifiOnlyWhenConstantBandwidthSuffices) {
  const auto wifi = BandwidthTrace::constant(DataRate::mbps(8.0));
  const auto cell = BandwidthTrace::constant(DataRate::mbps(8.0));
  const auto res = simulate_online_two_path(wifi, cell, megabytes(5),
                                            seconds(10.0));
  EXPECT_FALSE(res.deadline_missed);
  // 5 MB at 1 MB/s = 5 s.
  EXPECT_NEAR(to_seconds(res.finish_time), 5.0, 0.2);
  EXPECT_EQ(res.costly_bytes, 0);
}

TEST(OnlineSim, CellularFillsDeficit) {
  const auto wifi = BandwidthTrace::constant(DataRate::mbps(3.8));
  const auto cell = BandwidthTrace::constant(DataRate::mbps(3.0));
  const auto res = simulate_online_two_path(wifi, cell, megabytes(5),
                                            seconds(10.0));
  EXPECT_FALSE(res.deadline_missed);
  EXPECT_GT(res.costly_bytes, 0);
  // Optimal deficit is 250 KB; online should be in the same regime.
  EXPECT_LT(res.costly_bytes, megabytes(1));
}

TEST(OnlineSim, MissesOnlyOnSteepContinuousDrop) {
  // The paper observes misses happen when WiFi collapses and stays down.
  const auto wifi = gen_ramp(DataRate::mbps(6.0), DataRate::mbps(0.1), 20,
                             seconds(10.0));
  const auto cell = BandwidthTrace::constant(DataRate::kbps(500.0));
  const auto res = simulate_online_two_path(wifi, cell, megabytes(6),
                                            seconds(10.0));
  EXPECT_TRUE(res.deadline_missed);
  EXPECT_GT(res.miss_by, kDurationZero);
  // After the miss both paths run to completion.
  EXPECT_GT(res.costly_bytes, 0);
}

TEST(OnlineSim, TimelineCoversTransfer) {
  const auto wifi = BandwidthTrace::constant(DataRate::mbps(8.0));
  const auto cell = BandwidthTrace::constant(DataRate::mbps(8.0));
  const auto res = simulate_online_two_path(wifi, cell, megabytes(1),
                                            seconds(5.0));
  ASSERT_FALSE(res.timeline.empty());
  Bytes sum = 0;
  for (const auto& slot : res.timeline) {
    sum += slot.preferred_bytes + slot.costly_bytes;
  }
  EXPECT_GE(sum, megabytes(1));
  // Slot cadence matches the configured slot.
  EXPECT_EQ(res.timeline[1].start - res.timeline[0].start, milliseconds(50));
}

// Property (paper §7.2.1): smaller alpha is more conservative — never
// more deadline misses, never less cellular data.
class AlphaMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(AlphaMonotonicity, SmallerAlphaMoreCellular) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  JitterParams wp;
  wp.mean = DataRate::mbps(3.8);
  wp.sigma_fraction = 0.3;
  const auto wifi = gen_jitter(wp, rng);
  const auto cell = BandwidthTrace::constant(DataRate::mbps(3.0));

  double prev_cell = -1.0;
  for (double alpha : {0.7, 0.85, 1.0}) {
    OnlineSimConfig cfg;
    cfg.scheduler.alpha = alpha;
    const auto res = simulate_online_two_path(wifi, cell, megabytes(5),
                                              seconds(10.0), cfg);
    if (prev_cell >= 0.0) {
      // Larger alpha (less conservative) should not need *more* cellular.
      EXPECT_LE(res.costly_fraction, prev_cell + 0.02);
    }
    prev_cell = res.costly_fraction;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlphaMonotonicity, ::testing::Range(0, 5));

TEST(OnlineSim, ValidatesInputs) {
  const auto t = BandwidthTrace::constant(DataRate::mbps(1.0));
  EXPECT_THROW(simulate_online_two_path(t, t, 0, seconds(1.0)),
               std::invalid_argument);
  EXPECT_THROW(simulate_online_two_path(t, t, 100, kDurationZero),
               std::invalid_argument);
}

// The simulator runs the shipped DeadlineScheduler, so it rejects the
// configs the scheduler rejects instead of running them silently.
TEST(OnlineSim, RejectsInvalidSchedulerConfig) {
  const auto t = BandwidthTrace::constant(DataRate::mbps(1.0));
  for (double alpha : {0.0, 1.5, -1.0}) {
    OnlineSimConfig cfg;
    cfg.scheduler.alpha = alpha;
    EXPECT_THROW(simulate_online_two_path(t, t, megabytes(1), seconds(10.0),
                                          cfg),
                 std::invalid_argument)
        << "alpha " << alpha;
  }
  OnlineSimConfig cfg;
  cfg.scheduler.hysteresis = -0.5;
  EXPECT_THROW(
      simulate_online_two_path(t, t, megabytes(1), seconds(10.0), cfg),
      std::invalid_argument);
}

}  // namespace
}  // namespace mpdash
