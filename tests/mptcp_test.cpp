#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "mptcp/connection.h"
#include "mptcp/scheduler.h"
#include "mptcp/stream_buffer.h"
#include "mptcp/wire_data.h"

namespace mpdash {
namespace {

TEST(WireData, LengthAndAppend) {
  WireData w = wire_from_string("hello");
  wire_append(w, wire_virtual(10));
  EXPECT_EQ(wire_length(w), 15);
  EXPECT_EQ(wire_to_string(w).substr(0, 5), "hello");
  EXPECT_EQ(wire_to_string(w).size(), 15u);
}

TEST(WireData, SliceAcrossSegments) {
  WireData w = wire_from_string("abcdef");
  wire_append(w, wire_virtual(4));
  const WireData mid = wire_slice(w, 4, 4);  // "ef" + 2 virtual
  EXPECT_EQ(wire_length(mid), 4);
  EXPECT_EQ(wire_to_string(mid).substr(0, 2), "ef");
  EXPECT_TRUE(mid.back().is_virtual());
  EXPECT_THROW(wire_slice(w, 8, 5), std::out_of_range);
}

TEST(WireData, EmptyInputs) {
  EXPECT_TRUE(wire_from_string("").empty());
  EXPECT_TRUE(wire_virtual(0).empty());
  EXPECT_EQ(wire_length({}), 0);
}

TEST(StreamBuffer, PullsInFifoOrder) {
  StreamBuffer buf;
  buf.append(wire_from_string("abcd"));
  buf.append(wire_virtual(6));
  EXPECT_EQ(buf.size(), 10);
  const WireData first = buf.pull(3);
  EXPECT_EQ(wire_to_string(first), "abc");
  const WireData second = buf.pull(100);
  EXPECT_EQ(wire_length(second), 7);
  EXPECT_EQ(wire_to_string(second).substr(0, 1), "d");
  EXPECT_TRUE(buf.empty());
}

TEST(Scheduler, MinRttPrefersLowestRtt) {
  MinRttScheduler s;
  std::vector<SubflowSnapshot> snaps{
      {0, true, true, milliseconds(50)},
      {1, true, true, milliseconds(30)},
  };
  EXPECT_EQ(s.select(snaps), 1);
  snaps[1].has_cwnd_space = false;
  EXPECT_EQ(s.select(snaps), 0);
  snaps[0].enabled = false;
  EXPECT_EQ(s.select(snaps), -1);
}

TEST(Scheduler, RoundRobinRotates) {
  RoundRobinScheduler s;
  std::vector<SubflowSnapshot> snaps{
      {0, true, true, milliseconds(50)},
      {1, true, true, milliseconds(30)},
  };
  EXPECT_EQ(s.select(snaps), 0);
  EXPECT_EQ(s.select(snaps), 1);
  EXPECT_EQ(s.select(snaps), 0);
  snaps[0].enabled = false;
  EXPECT_EQ(s.select(snaps), 1);
  EXPECT_EQ(s.select(snaps), 1);
}

TEST(Scheduler, FactoryByName) {
  EXPECT_EQ(make_scheduler("minrtt")->name(), "minrtt");
  EXPECT_EQ(make_scheduler("roundrobin")->name(), "roundrobin");
  EXPECT_THROW(make_scheduler("bogus"), std::invalid_argument);
}

// --- endpoint / connection over real simulated paths -------------------

struct ConnFixture : ::testing::Test {
  Scenario scenario{constant_scenario(DataRate::mbps(8.0), DataRate::mbps(8.0))};
  MptcpConnection conn{scenario.loop(), scenario.paths()};
};

TEST_F(ConnFixture, InOrderDeliveryAcrossBothPaths) {
  std::string received;
  conn.client().set_receive_handler(
      [&](const WireData& d) { received += wire_to_string(d); });
  std::string expect;
  for (int i = 0; i < 200; ++i) {
    const std::string msg = "message-" + std::to_string(i) + ";";
    expect += msg;
    conn.server().send(wire_from_string(msg));
  }
  scenario.loop().run();
  EXPECT_EQ(received, expect);
  // With equal paths and minRTT, both carried data.
  EXPECT_GT(conn.client().delivered_payload_bytes(kWifiPathId), 0);
  EXPECT_GT(conn.client().delivered_payload_bytes(kCellularPathId), 0);
}

TEST_F(ConnFixture, DisabledPathCarriesNoNewData) {
  conn.server().set_send_mask(1u << kWifiPathId);  // WiFi only
  conn.server().send(wire_virtual(megabytes(1)));
  scenario.loop().run();
  EXPECT_EQ(conn.client().delivered_payload_bytes(kCellularPathId), 0);
  EXPECT_EQ(conn.client().delivered_payload_total(), megabytes(1));
}

TEST_F(ConnFixture, ClientSignalReachesServerEnforcement) {
  conn.client().signal_path_mask(1u << kWifiPathId);
  // Give the control ack a round trip.
  scenario.loop().run_until(scenario.loop().now() + milliseconds(100));
  EXPECT_EQ(conn.server().send_mask(), 1u << kWifiPathId);
  conn.server().send(wire_virtual(500'000));
  scenario.loop().run();
  EXPECT_EQ(conn.client().delivered_payload_bytes(kCellularPathId), 0);
}

TEST_F(ConnFixture, StaleMaskCopyCannotOverrideNewer) {
  // Flip twice quickly: all-paths signal (v1) then wifi-only (v2). Racing
  // copies must resolve to v2 regardless of arrival order.
  conn.client().signal_path_mask(1u << kWifiPathId);   // v1
  conn.client().signal_path_mask(kAllPathsMask);       // v2
  conn.client().signal_path_mask(1u << kWifiPathId);   // v3
  scenario.loop().run_until(scenario.loop().now() + milliseconds(200));
  EXPECT_EQ(conn.server().send_mask(), 1u << kWifiPathId);
}

TEST_F(ConnFixture, ThroughputSamplingWhileActive) {
  conn.client().set_sampling_active(true);
  conn.server().send(wire_virtual(megabytes(4)));
  // Read the estimates mid-transfer: once the stream drains, continued
  // sampling correctly decays them with zero-throughput intervals.
  scenario.loop().run_until(scenario.loop().now() + seconds(1.5));
  // Both 8 Mbps paths near fully driven; estimates should see multiple
  // Mbps each (payload goodput < wire rate).
  const double wifi =
      conn.client().path_throughput_estimate(kWifiPathId).as_mbps();
  const double agg = conn.client().aggregate_throughput_estimate().as_mbps();
  EXPECT_GT(wifi, 4.0);
  EXPECT_LT(wifi, 8.5);
  EXPECT_GT(agg, wifi);
  conn.client().set_sampling_active(false);
  scenario.loop().run();
}

TEST_F(ConnFixture, WireBytesAccounted) {
  conn.server().send(wire_virtual(megabytes(1)));
  scenario.loop().run();
  const Bytes total = conn.wire_bytes(kWifiPathId) +
                      conn.wire_bytes(kCellularPathId);
  // Payload + headers + acks: somewhat above 1 MB but below 1.2 MB.
  EXPECT_GT(total, megabytes(1));
  EXPECT_LT(total, megabytes(1) * 12 / 10);
  EXPECT_THROW(conn.wire_bytes(42), std::out_of_range);
}

TEST_F(ConnFixture, LargeTransferSplitsRoughlyEvenly) {
  conn.server().send(wire_virtual(megabytes(8)));
  scenario.loop().run();
  const double wifi =
      static_cast<double>(conn.client().delivered_payload_bytes(kWifiPathId));
  const double lte = static_cast<double>(
      conn.client().delivered_payload_bytes(kCellularPathId));
  EXPECT_NEAR(wifi / (wifi + lte), 0.5, 0.15);  // symmetric paths
}

TEST(Endpoint, RejectsDuplicatePathIds) {
  EventLoop loop;
  MptcpEndpoint ep(loop, MptcpEndpoint::Role::kServer);
  SubflowConfig cfg;
  cfg.path_id = 0;
  ep.add_path(cfg, [](Packet) {});
  EXPECT_THROW(ep.add_path(cfg, [](Packet) {}), std::invalid_argument);
  EXPECT_THROW(ep.subflow(9), std::out_of_range);
}

TEST(Endpoint, ReassemblyCountsEachByteOnceAndDeliversInOrder) {
  // Fed directly: out-of-order data, a duplicate of a buffered packet and
  // a duplicate of a delivered one. Every arrival is acked; only new
  // bytes count toward their path and reach the receiver, in order.
  EventLoop loop;
  MptcpEndpoint ep(loop, MptcpEndpoint::Role::kClient);
  int acks = 0;
  for (const int id : {0, 1}) {
    SubflowConfig cfg;
    cfg.path_id = id;
    ep.add_path(cfg, [&acks](Packet p) { acks += p.kind == PacketKind::kAck; });
  }
  std::vector<std::string> received;
  ep.set_receive_handler(
      [&](const WireData& d) { received.push_back(wire_to_string(d)); });
  std::uint64_t subflow_seq = 0;
  auto arrive = [&](int path, std::uint64_t data_seq, const char* text) {
    Packet p;
    p.kind = PacketKind::kData;
    p.path_id = path;
    p.subflow_seq = ++subflow_seq;
    p.data_seq = data_seq;
    p.segments = wire_from_string(text);
    p.payload_len = wire_length(p.segments);
    ep.on_packet(std::move(p));
  };
  arrive(1, 8, "cccc");
  arrive(0, 4, "bbbb");
  arrive(0, 8, "cccc");  // duplicate of a buffered packet
  EXPECT_TRUE(received.empty());
  arrive(1, 0, "aaaa");
  arrive(1, 4, "bbbb");  // duplicate of a delivered packet
  arrive(0, 12, "dddd");
  EXPECT_EQ(received,
            (std::vector<std::string>{"aaaa", "bbbb", "cccc", "dddd"}));
  EXPECT_EQ(ep.bytes_received_in_order(), 16u);
  EXPECT_EQ(ep.delivered_payload_bytes(0), 8);
  EXPECT_EQ(ep.delivered_payload_bytes(1), 8);
  EXPECT_EQ(acks, 6);
}

struct FailureFixture : ConnFixture {
  void enable_detection() {
    MptcpFailureConfig policy;
    policy.max_consecutive_rtos = 3;
    policy.reprobe_interval = reprobe;
    conn.server().set_failure_policy(policy);
    conn.client().set_failure_policy(policy);
  }
  void kill_wifi() {
    NetPath* wifi = scenario.paths()[0];
    wifi->downlink().set_down(true);
    wifi->uplink().set_down(true);
  }
  Duration reprobe = seconds(5.0);
};

TEST_F(FailureFixture, DeadSubflowIsDetectedAndTrafficReinjected) {
  reprobe = kDurationZero;  // not testing revival here
  enable_detection();
  std::uint64_t received = 0;
  conn.client().set_receive_handler(
      [&](const WireData& d) { received += wire_length(d); });
  conn.server().send(wire_virtual(megabytes(2)));
  // Let the transfer stripe across both paths, then kill WiFi mid-flight.
  scenario.loop().schedule_at(TimePoint(milliseconds(300)),
                              [this] { kill_wifi(); });
  scenario.loop().run_until(TimePoint(seconds(60.0)));

  // Everything still arrives, in order, via the surviving LTE subflow.
  EXPECT_EQ(received, megabytes(2));
  EXPECT_EQ(conn.client().bytes_received_in_order(), megabytes(2));
  EXPECT_TRUE(conn.server().path_dead(kWifiPathId));
  EXPECT_GE(conn.server().subflow_failures(), 1u);
  // Segments stranded on the dead subflow were reinjected, none left over.
  EXPECT_GE(conn.server().reinjected_packets(), 1u);
  EXPECT_EQ(conn.server().reinject_backlog(), 0u);
}

TEST_F(FailureFixture, ReprobeRevivesAHealedPath) {
  reprobe = seconds(3.0);
  enable_detection();
  std::uint64_t received = 0;
  conn.client().set_receive_handler(
      [&](const WireData& d) { received += wire_length(d); });
  conn.server().send(wire_virtual(megabytes(4)));
  scenario.loop().schedule_at(TimePoint(milliseconds(300)),
                              [this] { kill_wifi(); });
  // Heal well after detection + death, before the transfer can finish on
  // LTE alone is fine either way — the reprobe must re-admit the path.
  scenario.loop().schedule_at(TimePoint(seconds(8.0)), [this] {
    NetPath* wifi = scenario.paths()[0];
    wifi->downlink().set_down(false);
    wifi->uplink().set_down(false);
  });
  scenario.loop().run_until(TimePoint(seconds(120.0)));

  EXPECT_EQ(received, megabytes(4));
  EXPECT_GE(conn.server().subflow_failures(), 1u);
  EXPECT_GE(conn.server().subflow_revivals(), 1u);
  EXPECT_FALSE(conn.server().path_dead(kWifiPathId));
  EXPECT_EQ(conn.server().reinject_backlog(), 0u);
}

TEST_F(FailureFixture, WithoutDetectionTheTransferHangs) {
  // Seed behavior (policy disabled): a silently-dead path strands the
  // segments scheduled onto it forever.
  std::uint64_t received = 0;
  conn.client().set_receive_handler(
      [&](const WireData& d) { received += wire_length(d); });
  conn.server().send(wire_virtual(megabytes(2)));
  scenario.loop().schedule_at(TimePoint(milliseconds(300)),
                              [this] { kill_wifi(); });
  scenario.loop().run_until(TimePoint(seconds(60.0)));

  EXPECT_LT(received, megabytes(2));
  EXPECT_EQ(conn.server().subflow_failures(), 0u);
  EXPECT_EQ(conn.server().reinjected_packets(), 0u);
}

}  // namespace
}  // namespace mpdash
