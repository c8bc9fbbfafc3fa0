#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace mpdash {
namespace {

TEST(Units, SecondsRoundTrip) {
  EXPECT_EQ(seconds(1.0), Duration(1'000'000'000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(70)), 70.0);
}

TEST(Units, DataRateConversions) {
  const DataRate r = DataRate::mbps(8.0);
  EXPECT_DOUBLE_EQ(r.bps(), 8e6);
  EXPECT_DOUBLE_EQ(r.as_kbps(), 8000.0);
  EXPECT_EQ(r.bytes_in(seconds(1.0)), 1'000'000);
  EXPECT_EQ(r.time_to_send(1'000'000), seconds(1.0));
}

TEST(Units, ZeroRateNeverCompletes) {
  EXPECT_EQ(DataRate::bits_per_second(0).time_to_send(1), Duration::max());
}

TEST(Units, RateArithmetic) {
  const DataRate a = DataRate::mbps(3.0);
  const DataRate b = DataRate::mbps(1.5);
  EXPECT_EQ((a + b).as_mbps(), 4.5);
  EXPECT_EQ((a - b).as_mbps(), 1.5);
  EXPECT_EQ((a * 2.0).as_mbps(), 6.0);
  EXPECT_EQ((a / 2.0).as_mbps(), 1.5);
  EXPECT_LT(b, a);
}

TEST(Units, RateOfHandlesZeroDuration) {
  EXPECT_TRUE(rate_of(1000, kDurationZero).is_zero());
  EXPECT_DOUBLE_EQ(rate_of(1'000'000, seconds(1.0)).as_mbps(), 8.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  OnlineStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalMomentMatched) {
  Rng rng(13);
  OnlineStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.lognormal_mean_sd(5.0, 1.5));
  EXPECT_NEAR(st.mean(), 5.0, 0.1);
  EXPECT_NEAR(st.stddev(), 1.5, 0.15);
  EXPECT_GT(st.min(), 0.0);  // lognormal is strictly positive
}

TEST(Rng, SplitIndependentStreams) {
  Rng a(99);
  Rng b = a.split();
  Rng c = a.split();
  EXPECT_NE(b.next_u64(), c.next_u64());
}

TEST(Stats, OnlineStatsBasics) {
  OnlineStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  for (double v : {2.0, 4.0, 6.0}) st.add(v);
  EXPECT_EQ(st.count(), 3u);
  EXPECT_DOUBLE_EQ(st.mean(), 4.0);
  EXPECT_DOUBLE_EQ(st.variance(), 4.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 6.0);
  EXPECT_DOUBLE_EQ(st.sum(), 12.0);
}

TEST(Stats, PercentileInterpolation) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, HarmonicMean) {
  EXPECT_DOUBLE_EQ(harmonic_mean({2.0, 2.0}), 2.0);
  EXPECT_NEAR(harmonic_mean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(harmonic_mean({1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(harmonic_mean({}), 0.0);
}

TEST(Stats, EmpiricalCdf) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 1.0);
  EXPECT_NEAR(cdf[0].second, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].first, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].second, 1.0);
}

TEST(Csv, RoundTripWithQuoting) {
  CsvWriter w({"a", "b"});
  w.add_row({"plain", "with,comma"});
  w.add_row({"quote\"inside", "line\nbreak"});
  const auto rows = parse_csv(w.str());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1][1], "with,comma");
  EXPECT_EQ(rows[2][0], "quote\"inside");
  EXPECT_EQ(rows[2][1], "line\nbreak");
}

TEST(Csv, ParsesCrlfAndMissingTrailingNewline) {
  const auto rows = parse_csv("x,y\r\n1,2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(FileIo, WriteThenReadRoundTripsAndFailuresReport) {
  const std::string path = ::testing::TempDir() + "mpdash_util_test.txt";
  const std::string text("a,b\n\0binary\n", 12);
  ASSERT_TRUE(write_file(path, text));
  std::string back;
  ASSERT_TRUE(read_file(path, &back));
  EXPECT_EQ(back, text);
  std::remove(path.c_str());
  EXPECT_FALSE(read_file(path, &back));
  EXPECT_FALSE(write_file(::testing::TempDir() + "no_such_dir/x.txt", text));
  // /dev/full opens fine and fails the flush at close: a full disk.
  if (std::FILE* f = std::fopen("/dev/full", "wb")) {
    std::fclose(f);
    EXPECT_FALSE(write_file("/dev/full", text));
  }
}

TEST(Table, RendersAlignedCells) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.5, 1), "50.0%");
}

TEST(Table, AsciiPlotContainsLegend) {
  const std::string out =
      ascii_plot({{"series-a", {{0, 0}, {1, 1}, {2, 4}}}}, 40, 8, "x", "y");
  EXPECT_NE(out.find("series-a"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

}  // namespace
}  // namespace mpdash
