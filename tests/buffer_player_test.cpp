#include <gtest/gtest.h>

#include "dash/buffer.h"
#include "dash/player.h"
#include "dash/server.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "http/client.h"
#include "mptcp/connection.h"
#include "telemetry/telemetry.h"

namespace mpdash {
namespace {

TEST(PlaybackBuffer, AddAndDrain) {
  PlaybackBuffer buf(seconds(40.0));
  EXPECT_EQ(buf.level(kTimeZero), kDurationZero);
  buf.add(kTimeZero, seconds(4.0));
  buf.add(kTimeZero, seconds(4.0));
  EXPECT_EQ(buf.level(kTimeZero), seconds(8.0));
  // Not playing: level holds.
  EXPECT_EQ(buf.level(TimePoint(seconds(100.0))), seconds(8.0));
  buf.set_playing(TimePoint(seconds(100.0)), true);
  EXPECT_EQ(buf.level(TimePoint(seconds(103.0))), seconds(5.0));
  EXPECT_EQ(buf.level(TimePoint(seconds(200.0))), kDurationZero);
}

TEST(PlaybackBuffer, ClampsAtCapacity) {
  PlaybackBuffer buf(seconds(10.0));
  for (int i = 0; i < 5; ++i) buf.add(kTimeZero, seconds(4.0));
  EXPECT_EQ(buf.level(kTimeZero), seconds(10.0));
  EXPECT_EQ(buf.total_added(), seconds(20.0));
  EXPECT_FALSE(buf.has_room(kTimeZero, seconds(4.0)));
}

TEST(PlaybackBuffer, DepletionTime) {
  PlaybackBuffer buf(seconds(40.0));
  buf.add(kTimeZero, seconds(6.0));
  EXPECT_EQ(buf.depletion_time(kTimeZero), TimePoint::max());  // paused
  buf.set_playing(kTimeZero, true);
  EXPECT_EQ(buf.depletion_time(kTimeZero), TimePoint(seconds(6.0)));
  EXPECT_EQ(buf.depletion_time(TimePoint(seconds(2.0))),
            TimePoint(seconds(6.0)));
}

TEST(PlaybackBuffer, RejectsNonPositiveCapacity) {
  EXPECT_THROW(PlaybackBuffer{kDurationZero}, std::invalid_argument);
}

// --- full player sessions ----------------------------------------------

struct PlayerFixture {
  Scenario scenario;
  MptcpConnection conn;
  std::unique_ptr<DashServer> server;
  HttpClient client;

  explicit PlayerFixture(double wifi_mbps, double lte_mbps,
                         Video video = big_buck_bunny(seconds(4.0)))
      : scenario(constant_scenario(DataRate::mbps(wifi_mbps),
                                   DataRate::mbps(lte_mbps))),
        conn(scenario.loop(), scenario.paths()),
        client(scenario.loop(), conn.client()) {
    server = std::make_unique<DashServer>(conn.server(), std::move(video));
  }
};

// The player's events, read the way the analyzer reads them: as the
// kPlayer records it emits into a trace.
struct PlayerEvents {
  Telemetry telemetry;
  TraceCollector trace;

  explicit PlayerEvents(DashPlayer& player) {
    telemetry.add_sink(&trace);
    player.set_telemetry(&telemetry);
  }
  PlayerEvents(const PlayerEvents&) = delete;  // the player holds its address
  PlayerEvents& operator=(const PlayerEvents&) = delete;
  std::vector<TraceRecord> records() const {
    std::vector<TraceRecord> out;
    for (const TraceRecord& r : trace.records()) {
      if (r.type == TraceType::kPlayer) out.push_back(r);
    }
    return out;
  }
};

Video short_video() {
  return Video("Short", seconds(4.0), 20,
               {DataRate::mbps(0.58), DataRate::mbps(1.01),
                DataRate::mbps(1.47), DataRate::mbps(2.41),
                DataRate::mbps(3.94)},
               0.12, 7);
}

TEST(DashPlayer, FastNetworkPlaysTopQualityWithoutStalls) {
  PlayerFixture f(50.0, 50.0, short_video());
  auto adaptation = make_adaptation("festive");
  DashPlayer player(f.scenario.loop(), f.client, *adaptation);
  const PlayerEvents events(player);
  player.start();
  f.scenario.loop().run_until(TimePoint(seconds(300.0)));

  ASSERT_TRUE(player.done());
  EXPECT_EQ(player.stall_count(), 0);
  ASSERT_EQ(player.chunks().size(), 20u);
  // FESTIVE ramps up; the tail should sit at the top level.
  EXPECT_EQ(player.chunks().back().level, 4);
  // Event bookkeeping: one request + one complete per chunk.
  const std::vector<TraceRecord> records = events.records();
  int requests = 0, completes = 0;
  for (const TraceRecord& r : records) {
    requests += is_player_event(r, PlayerEventType::kChunkRequest);
    completes += is_player_event(r, PlayerEventType::kChunkComplete);
  }
  EXPECT_EQ(requests, 20);
  EXPECT_EQ(completes, 20);
  ASSERT_FALSE(records.empty());
  EXPECT_TRUE(is_player_event(records.back(), PlayerEventType::kPlaybackDone));
}

TEST(DashPlayer, StarvedNetworkStallsButFinishes) {
  // 0.4 Mbps cannot sustain even the lowest 0.58 Mbps level.
  PlayerFixture f(0.4, 0.4, short_video());
  auto adaptation = make_adaptation("gpac");
  DashPlayer player(f.scenario.loop(), f.client, *adaptation);
  player.start();
  f.scenario.loop().run_until(TimePoint(seconds(900.0)));

  ASSERT_TRUE(player.done());
  EXPECT_GT(player.stall_count(), 0);
  EXPECT_GT(to_seconds(player.total_stall_time()), 1.0);
  // Every chunk was forced to the lowest level.
  for (const auto& c : player.chunks()) EXPECT_EQ(c.level, 0);
}

TEST(DashPlayer, DoneCallbackFires) {
  PlayerFixture f(50.0, 50.0, short_video());
  auto adaptation = make_adaptation("gpac");
  DashPlayer player(f.scenario.loop(), f.client, *adaptation);
  bool done = false;
  player.set_done_callback([&] { done = true; });
  player.start();
  f.scenario.loop().run_until(TimePoint(seconds(300.0)));
  EXPECT_TRUE(done);
}

TEST(DashPlayer, BufferNeverExceedsCapacity) {
  PlayerFixture f(50.0, 50.0, short_video());
  auto adaptation = make_adaptation("bba");
  PlayerConfig cfg;
  cfg.buffer_capacity = seconds(20.0);
  DashPlayer player(f.scenario.loop(), f.client, *adaptation, cfg);
  const PlayerEvents events(player);
  player.start();
  f.scenario.loop().run_until(TimePoint(seconds(300.0)));
  ASSERT_TRUE(player.done());
  for (const TraceRecord& r : events.records()) {
    if (is_player_event(r, PlayerEventType::kBufferSample)) {
      EXPECT_LE(r.value, 20.0 + 1e-6);
    }
  }
}

TEST(DashPlayer, ChunkRecordsCarryTimingAndBuffer) {
  PlayerFixture f(10.0, 10.0, short_video());
  auto adaptation = make_adaptation("festive");
  DashPlayer player(f.scenario.loop(), f.client, *adaptation);
  player.start();
  f.scenario.loop().run_until(TimePoint(seconds(300.0)));
  ASSERT_TRUE(player.done());
  TimePoint prev = kTimeZero;
  for (const auto& c : player.chunks()) {
    EXPECT_GE(c.requested, prev);      // sequential fetches
    EXPECT_GT(c.completed, c.requested);
    EXPECT_GT(c.bytes, 0);
    prev = c.requested;
  }
}

}  // namespace
}  // namespace mpdash
