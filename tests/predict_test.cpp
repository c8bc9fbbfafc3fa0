#include <gtest/gtest.h>

#include <memory>

#include "predict/estimator.h"
#include "predict/ewma.h"
#include "predict/harmonic.h"
#include "predict/holt_winters.h"

namespace mpdash {
namespace {

TEST(HoltWinters, ZeroBeforeSamples) {
  HoltWinters hw;
  EXPECT_TRUE(hw.predict().is_zero());
  EXPECT_EQ(hw.sample_count(), 0u);
}

TEST(HoltWinters, ConvergesOnConstantSeries) {
  HoltWinters hw;
  for (int i = 0; i < 50; ++i) hw.add_sample(DataRate::mbps(4.0));
  EXPECT_NEAR(hw.predict().as_mbps(), 4.0, 1e-6);
  EXPECT_NEAR(hw.trend_bps(), 0.0, 1.0);
}

TEST(HoltWinters, TracksLinearTrend) {
  HoltWinters hw;
  // Rising 0.1 Mbps per sample: the one-step-ahead forecast should lead
  // the latest sample.
  for (int i = 0; i < 60; ++i) {
    hw.add_sample(DataRate::mbps(1.0 + 0.1 * i));
  }
  const double last = 1.0 + 0.1 * 59;
  EXPECT_GT(hw.predict().as_mbps(), last);
  EXPECT_NEAR(hw.predict().as_mbps(), last + 0.1, 0.05);
}

TEST(HoltWinters, ReactsFasterThanEwmaOnDrop) {
  HoltWinters hw;
  Ewma ewma(0.25);
  for (int i = 0; i < 30; ++i) {
    hw.add_sample(DataRate::mbps(6.0));
    ewma.add_sample(DataRate::mbps(6.0));
  }
  for (int i = 0; i < 5; ++i) {
    hw.add_sample(DataRate::mbps(1.0));
    ewma.add_sample(DataRate::mbps(1.0));
  }
  // The trend term lets Holt-Winters chase the collapse.
  EXPECT_LT(hw.predict().as_mbps(), ewma.predict().as_mbps());
}

TEST(HoltWinters, PredictionClampedAtZero) {
  HoltWinters hw;
  for (double v : {5.0, 3.0, 1.0, 0.2, 0.0, 0.0}) {
    hw.add_sample(DataRate::mbps(v));
  }
  EXPECT_GE(hw.predict().bps(), 0.0);
}

TEST(HoltWinters, ResetClearsState) {
  HoltWinters hw;
  hw.add_sample(DataRate::mbps(9.0));
  hw.reset();
  EXPECT_TRUE(hw.predict().is_zero());
  EXPECT_EQ(hw.sample_count(), 0u);
}

TEST(HoltWinters, ValidatesParameters) {
  EXPECT_THROW(HoltWinters({.alpha = 0.0, .beta = 0.2}),
               std::invalid_argument);
  EXPECT_THROW(HoltWinters({.alpha = 0.5, .beta = 1.5}),
               std::invalid_argument);
}

TEST(Ewma, FirstSampleSeedsValue) {
  Ewma e(0.5);
  e.add_sample(DataRate::mbps(8.0));
  EXPECT_NEAR(e.predict().as_mbps(), 8.0, 1e-9);
  e.add_sample(DataRate::mbps(4.0));
  EXPECT_NEAR(e.predict().as_mbps(), 6.0, 1e-9);
}

TEST(Ewma, ValidatesWeight) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

TEST(Harmonic, WindowedHarmonicMean) {
  HarmonicMean h(3);
  h.add_sample(DataRate::mbps(1.0));
  h.add_sample(DataRate::mbps(2.0));
  EXPECT_NEAR(h.predict().as_mbps(), 4.0 / 3.0, 1e-9);
  // Window slides: only the last 3 samples count.
  h.add_sample(DataRate::mbps(2.0));
  h.add_sample(DataRate::mbps(2.0));
  h.add_sample(DataRate::mbps(2.0));
  EXPECT_NEAR(h.predict().as_mbps(), 2.0, 1e-9);
}

TEST(Harmonic, ZeroSampleDominates) {
  HarmonicMean h(5);
  h.add_sample(DataRate::mbps(5.0));
  h.add_sample(DataRate::bits_per_second(0));
  EXPECT_TRUE(h.predict().is_zero());
}

TEST(RateSampler, EmitsOneSamplePerInterval) {
  auto hw = std::make_shared<HoltWinters>();
  RateSampler sampler(hw, milliseconds(100));
  // 12500 bytes per 100 ms = 1 Mbps, delivered mid-interval.
  sampler.on_bytes(kTimeZero, 0);
  for (int i = 0; i < 10; ++i) {
    sampler.on_bytes(TimePoint(milliseconds(100 * i + 50)), 12'500);
  }
  sampler.advance_to(TimePoint(seconds(1.0)));
  EXPECT_EQ(hw->sample_count(), 10u);
  EXPECT_NEAR(sampler.estimate().as_mbps(), 1.0, 0.05);
}

TEST(RateSampler, AdvanceEmitsZeroSamples) {
  auto hw = std::make_shared<HoltWinters>();
  RateSampler sampler(hw, milliseconds(100));
  sampler.on_bytes(kTimeZero, 12'500);
  sampler.advance_to(TimePoint(seconds(1.0)));
  EXPECT_EQ(hw->sample_count(), 10u);
  EXPECT_LT(sampler.estimate().as_mbps(), 0.5);
}

TEST(RateSampler, ResyncSkipsIdleGap) {
  auto hw = std::make_shared<HoltWinters>();
  RateSampler sampler(hw, milliseconds(100));
  sampler.on_bytes(kTimeZero, 0);
  for (int i = 1; i <= 5; ++i) {
    sampler.on_bytes(TimePoint(milliseconds(100 * i)), 50'000);  // 4 Mbps
  }
  const double before = sampler.estimate().as_mbps();
  // 10 s idle gap, then resync: no zero samples must be emitted.
  sampler.resync(TimePoint(seconds(11.0)));
  EXPECT_NEAR(sampler.estimate().as_mbps(), before, 1e-9);
  const auto n = hw->sample_count();
  sampler.on_bytes(TimePoint(seconds(11.0) + milliseconds(100)), 50'000);
  EXPECT_EQ(hw->sample_count(), n + 1);
}

}  // namespace
}  // namespace mpdash
