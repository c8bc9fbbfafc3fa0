#include <gtest/gtest.h>

#include "dash/manifest.h"
#include "dash/video.h"

namespace mpdash {
namespace {

TEST(Video, PresetsMatchPaperTable3) {
  const Video bbb = big_buck_bunny();
  ASSERT_EQ(bbb.level_count(), 5);
  EXPECT_NEAR(bbb.level(0).avg_bitrate.as_mbps(), 0.58, 1e-9);
  EXPECT_NEAR(bbb.level(4).avg_bitrate.as_mbps(), 3.94, 1e-9);
  EXPECT_EQ(bbb.chunk_count(), 150);  // 10 min of 4 s chunks
  EXPECT_EQ(bbb.chunk_duration(), seconds(4.0));

  const Video hd = tears_of_steel_hd();
  EXPECT_NEAR(hd.level(4).avg_bitrate.as_mbps(), 10.0, 1e-9);
  EXPECT_NEAR(hd.level(0).avg_bitrate.as_mbps(), 1.51, 1e-9);

  EXPECT_NEAR(red_bull_playstreets().level(2).avg_bitrate.as_mbps(), 1.50,
              1e-9);
  EXPECT_NEAR(tears_of_steel().level(3).avg_bitrate.as_mbps(), 2.42, 1e-9);
}

TEST(Video, ChunkDurationControlsCount) {
  EXPECT_EQ(big_buck_bunny(seconds(6.0)).chunk_count(), 100);
  EXPECT_EQ(big_buck_bunny(seconds(10.0)).chunk_count(), 60);
}

TEST(Video, PresetsRejectChunksShorterThanAMillisecond) {
  // Zero would divide the video's length by zero; a microsecond would ask
  // for 600 M chunks per level.
  EXPECT_THROW(big_buck_bunny(kDurationZero), std::invalid_argument);
  EXPECT_THROW(tears_of_steel_hd(microseconds(999)), std::invalid_argument);
  EXPECT_EQ(red_bull_playstreets(milliseconds(1)).chunk_count(), 600'000);
}

TEST(Video, VbrSizesVaryAroundNominal) {
  const Video v = big_buck_bunny();
  const Bytes nominal = v.nominal_chunk_size(4);
  double sum = 0.0;
  Bytes lo = nominal * 10, hi = 0;
  for (int k = 0; k < v.chunk_count(); ++k) {
    const Bytes s = v.chunk_size(4, k);
    sum += static_cast<double>(s);
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  const double mean = sum / v.chunk_count();
  EXPECT_NEAR(mean, static_cast<double>(nominal), 0.05 * nominal);
  EXPECT_LT(lo, nominal);  // actual VBR spread
  EXPECT_GT(hi, nominal);
}

TEST(Video, ComplexityCorrelatedAcrossLevels) {
  // A busy scene is bigger at every level.
  const Video v = big_buck_bunny();
  int agree = 0;
  const int n = v.chunk_count() - 1;
  for (int k = 0; k < n; ++k) {
    const bool up0 = v.chunk_size(0, k + 1) > v.chunk_size(0, k);
    const bool up4 = v.chunk_size(4, k + 1) > v.chunk_size(4, k);
    agree += up0 == up4;
  }
  EXPECT_EQ(agree, n);
}

TEST(Video, HighestLevelNotAbove) {
  const Video v = big_buck_bunny();
  EXPECT_EQ(v.highest_level_not_above(DataRate::mbps(10.0)), 4);
  EXPECT_EQ(v.highest_level_not_above(DataRate::mbps(2.5)), 3);
  EXPECT_EQ(v.highest_level_not_above(DataRate::mbps(0.1)), 0);
}

TEST(Video, DeterministicAcrossConstruction) {
  const Video a = big_buck_bunny();
  const Video b = big_buck_bunny();
  for (int k = 0; k < a.chunk_count(); k += 17) {
    EXPECT_EQ(a.chunk_size(3, k), b.chunk_size(3, k));
  }
}

TEST(Video, ValidatesArguments) {
  EXPECT_THROW(Video("x", kDurationZero, 10, {DataRate::mbps(1)}, 0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(
      Video("x", seconds(4.0), 10,
            {DataRate::mbps(2), DataRate::mbps(1)}, 0.1, 1),  // descending
      std::invalid_argument);
}

TEST(Manifest, XmlRoundTripPreservesEverything) {
  const Video v = big_buck_bunny();
  const std::string xml = manifest_to_xml(v);
  EXPECT_NE(xml.find("<MPD"), std::string::npos);
  EXPECT_NE(xml.find("<ChunkSizes>"), std::string::npos);

  const Video back = video_from_manifest(xml);
  EXPECT_EQ(back.name(), v.name());
  EXPECT_EQ(back.chunk_count(), v.chunk_count());
  EXPECT_EQ(back.chunk_duration(), v.chunk_duration());
  ASSERT_EQ(back.level_count(), v.level_count());
  for (int l = 0; l < v.level_count(); ++l) {
    EXPECT_NEAR(back.level(l).avg_bitrate.bps(), v.level(l).avg_bitrate.bps(),
                1.0);
    for (int k = 0; k < v.chunk_count(); k += 13) {
      EXPECT_EQ(back.chunk_size(l, k), v.chunk_size(l, k));
    }
  }
}

TEST(Manifest, EscapesVideoName) {
  const Video v("Name <with> \"specials\" & more", seconds(2.0), 3,
                {DataRate::mbps(1.0)}, 0.1, 9);
  const Video back = video_from_manifest(manifest_to_xml(v));
  EXPECT_EQ(back.name(), "Name <with> \"specials\" & more");
}

TEST(Manifest, RejectsMalformed) {
  EXPECT_THROW(video_from_manifest("not xml"), std::invalid_argument);
  EXPECT_THROW(video_from_manifest("<MPD name=\"x\" chunkDurationMs=\"0\" "
                                   "chunks=\"5\"></MPD>"),
               std::invalid_argument);
}

TEST(Manifest, ChunkUrls) {
  EXPECT_EQ(chunk_url(2, 17), "/video/chunk-2-17.m4s");
  int level = -1, chunk = -1;
  EXPECT_TRUE(parse_chunk_url("/video/chunk-2-17.m4s", level, chunk));
  EXPECT_EQ(level, 2);
  EXPECT_EQ(chunk, 17);
  EXPECT_FALSE(parse_chunk_url("/video/manifest.mpd", level, chunk));
  EXPECT_FALSE(parse_chunk_url("/other", level, chunk));
}

}  // namespace
}  // namespace mpdash
