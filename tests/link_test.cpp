#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exp/scenario.h"
#include "link/link.h"
#include "link/path.h"
#include "link/shaper.h"
#include "sim/event_loop.h"

namespace mpdash {
namespace {

Packet data_packet(Bytes wire, std::uint64_t id = 1) {
  Packet p;
  p.id = id;
  p.kind = PacketKind::kData;
  p.wire_size = wire;
  p.payload_len = wire - kPacketHeaderBytes;
  return p;
}

TEST(Link, SerializationPlusPropagation) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(8.0));  // 1 MB/s
  cfg.propagation_delay = milliseconds(25);
  Link link(loop, cfg);

  TimePoint delivered_at = kTimeZero;
  link.set_deliver_handler([&](Packet) { delivered_at = loop.now(); });
  link.send(data_packet(1000));
  loop.run();
  // 1000 B at 1 MB/s = 1 ms serialize + 25 ms propagation.
  EXPECT_NEAR(to_milliseconds(delivered_at), 26.0, 0.01);
  EXPECT_EQ(link.delivered_packets(), 1u);
  EXPECT_EQ(link.delivered_bytes(), 1000);
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(8.0));
  cfg.propagation_delay = kDurationZero;
  Link link(loop, cfg);

  std::vector<double> times;
  link.set_deliver_handler([&](Packet) {
    times.push_back(to_milliseconds(loop.now()));
  });
  link.send(data_packet(1000, 1));
  link.send(data_packet(1000, 2));
  loop.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[0], 1.0, 0.01);
  EXPECT_NEAR(times[1], 2.0, 0.01);  // serialized after the first
}

TEST(Link, DropTailOnQueueOverflow) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(1.0));
  cfg.queue_capacity = 2500;
  Link link(loop, cfg);

  int delivered = 0;
  link.set_deliver_handler([&](Packet) { ++delivered; });
  for (int i = 0; i < 5; ++i) link.send(data_packet(1000, i + 1));
  loop.run();
  // 2 fit in the 2500 B queue; the rest drop.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.dropped_packets(), 3u);
  EXPECT_EQ(link.dropped_bytes(), 3000);
}

TEST(Link, RespectsTimeVaryingRate) {
  EventLoop loop;
  LinkConfig cfg;
  // 8 Mbps for 1 s, then 0.8 Mbps.
  cfg.rate = BandwidthTrace({{kTimeZero, DataRate::mbps(8.0)},
                             {TimePoint(seconds(1.0)), DataRate::mbps(0.8)}});
  cfg.propagation_delay = kDurationZero;
  cfg.queue_capacity = 10'000'000;
  Link link(loop, cfg);

  TimePoint last = kTimeZero;
  link.set_deliver_handler([&](Packet) { last = loop.now(); });
  // 1.5 MB: 1 MB in the first second, 0.5 MB at 0.1 MB/s = 5 s more.
  for (int i = 0; i < 1500; ++i) link.send(data_packet(1000, i + 1));
  loop.run();
  EXPECT_NEAR(to_seconds(last), 6.0, 0.05);
}

TEST(Link, TraceSinkSeesSendDeliverDrop) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(1.0));
  cfg.queue_capacity = 1500;
  Link link(loop, cfg);
  Telemetry telemetry;
  TraceCollector sink;
  telemetry.add_sink(&sink);
  link.set_telemetry(&telemetry);
  link.set_deliver_handler([](Packet) {});
  link.send(data_packet(1000, 1));
  link.send(data_packet(1000, 2));
  loop.run();
  int sends = 0, delivers = 0, drops = 0;
  for (const auto& r : sink.records()) {
    if (r.type == TraceType::kPacketSend) ++sends;
    if (r.type == TraceType::kPacketDeliver) ++delivers;
    if (r.type == TraceType::kPacketDrop) ++drops;
  }
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(delivers, 1);
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(telemetry.metrics().counter("link.link0.dropped_packets").value(),
            1.0);
}

TEST(Link, RandomLossDropsApproximately) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(100.0));
  cfg.queue_capacity = 100'000'000;
  cfg.random_loss = 0.3;
  Link link(loop, cfg);
  // Deterministic "uniform" stream.
  double v = 0.05;
  link.set_loss_rng([&] {
    v += 0.1;
    if (v >= 1.0) v -= 1.0;
    return v;
  });
  int delivered = 0;
  link.set_deliver_handler([&](Packet) { ++delivered; });
  for (int i = 0; i < 100; ++i) link.send(data_packet(500, i + 1));
  loop.run();
  EXPECT_NEAR(static_cast<double>(link.dropped_packets()), 30.0, 5.0);
}

// Records the data_seq of every packet a link drops, in drop order.
struct DropLog : TraceSink {
  std::vector<std::uint64_t> seqs;
  void on_record(const TraceRecord& r) override {
    if (r.type == TraceType::kPacketDrop) seqs.push_back(r.data_seq);
  }
};

Packet seq_packet(int flow, std::uint64_t seq) {
  Packet p = data_packet(1000, seq);
  p.flow = flow;
  p.data_seq = seq;
  return p;
}

// Per discipline: link down mid-run. Packet 1 is already propagating,
// packet 2 is on the radio, the rest wait in the queue.
struct LinkDownFixture {
  explicit LinkDownFixture(QueueDiscipline d) {
    LinkConfig cfg;
    cfg.rate = BandwidthTrace::constant(DataRate::mbps(8.0));  // 1 ms/pkt
    cfg.propagation_delay = milliseconds(10);
    cfg.queue_capacity = 100'000;
    cfg.discipline = d;
    link = std::make_unique<Link>(loop, cfg);
    telemetry.add_sink(&drops);
    link->set_telemetry(&telemetry);
    link->set_deliver_handler([this](Packet p) {
      delivered.push_back(p.data_seq);
    });
  }

  EventLoop loop;
  Telemetry telemetry;
  DropLog drops;
  std::unique_ptr<Link> link;
  std::vector<std::uint64_t> delivered;
};

TEST(Link, SetDownFifoDropsBacklogTailFirstThenThePacketOnTheRadio) {
  LinkDownFixture f(QueueDiscipline::kFifo);
  for (std::uint64_t s = 1; s <= 5; ++s) f.link->send(seq_packet(0, s));
  f.loop.run_until(TimePoint(microseconds(1500)));
  f.link->set_down(true);
  // The backlog goes at once, tail first; packet 2 still holds its buffer
  // bytes until its serialization ends.
  EXPECT_EQ(f.drops.seqs, (std::vector<std::uint64_t>{5, 4, 3}));
  EXPECT_EQ(f.link->queued_bytes(), 1000);
  f.loop.run();
  EXPECT_EQ(f.drops.seqs, (std::vector<std::uint64_t>{5, 4, 3, 2}));
  EXPECT_EQ(f.delivered, std::vector<std::uint64_t>{1});  // past the radio
  EXPECT_EQ(f.link->queued_bytes(), 0);
  EXPECT_EQ(f.link->dropped_packets(), 4u);
}

TEST(Link, SetDownDrrDropsFlowsAscendingFrontToBack) {
  LinkDownFixture f(QueueDiscipline::kFairQueue);
  // Packet 1 (flow 2) goes out first, then DRR serves flow 0's packet 2.
  f.link->send(seq_packet(2, 1));
  f.link->send(seq_packet(0, 2));
  f.link->send(seq_packet(2, 3));
  f.link->send(seq_packet(1, 4));
  f.link->send(seq_packet(0, 5));
  f.link->send(seq_packet(2, 6));
  f.link->send(seq_packet(1, 7));
  f.loop.run_until(TimePoint(microseconds(1500)));
  f.link->set_down(true);
  EXPECT_EQ(f.drops.seqs, (std::vector<std::uint64_t>{5, 4, 7, 3, 6}));
  EXPECT_EQ(f.link->queued_bytes(), 1000);
  f.loop.run();
  EXPECT_EQ(f.drops.seqs, (std::vector<std::uint64_t>{5, 4, 7, 3, 6, 2}));
  EXPECT_EQ(f.delivered, std::vector<std::uint64_t>{1});
  EXPECT_EQ(f.link->queued_bytes(), 0);
  EXPECT_EQ(f.link->dropped_bytes_for_flow(0), 2000);
  EXPECT_EQ(f.link->dropped_bytes_for_flow(1), 2000);
  EXPECT_EQ(f.link->dropped_bytes_for_flow(2), 2000);
}

TEST(Link, ZeroRateFactorStallsUntilTheRateIsRestored) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(8.0));
  cfg.propagation_delay = kDurationZero;
  Link link(loop, cfg);
  std::vector<double> times;
  link.set_deliver_handler(
      [&](Packet) { times.push_back(to_seconds(loop.now())); });
  link.set_rate_factor(0.0);
  link.send(data_packet(1000, 1));
  link.send(data_packet(1000, 2));
  loop.run_until(TimePoint(seconds(1.0)));
  EXPECT_TRUE(times.empty());
  EXPECT_EQ(link.queued_bytes(), 2000);
  link.set_rate_factor(1.0);
  loop.run();
  // The stalled packet resumes at the next 100 ms retry.
  ASSERT_EQ(times.size(), 2u);
  EXPECT_GT(times[0], 1.0);
  EXPECT_LT(times[0], 1.2);
  EXPECT_NEAR(times[1] - times[0], 0.001, 1e-6);
  EXPECT_EQ(link.queued_bytes(), 0);
}

TEST(Shaper, ConformsToTokenRate) {
  EventLoop loop;
  ShaperConfig cfg;
  cfg.rate = DataRate::kbps(800.0);  // 100 KB/s
  cfg.burst = 2000;
  TokenBucketShaper shaper(loop, cfg);
  TimePoint last = kTimeZero;
  Bytes forwarded = 0;
  shaper.set_forward_handler([&](Packet p) {
    last = loop.now();
    forwarded += p.wire_size;
  });
  // 52 KB at 100 KB/s: initial 2 KB burst free, remaining 50 KB -> ~0.5 s.
  for (int i = 0; i < 52; ++i) shaper.send(data_packet(1000, i + 1));
  loop.run();
  EXPECT_EQ(forwarded, 52'000);
  EXPECT_NEAR(to_seconds(last), 0.5, 0.05);
}

TEST(Shaper, DropsWhenQueueFull) {
  EventLoop loop;
  ShaperConfig cfg;
  cfg.rate = DataRate::kbps(8.0);
  cfg.burst = 1000;
  cfg.queue_capacity = 3000;
  TokenBucketShaper shaper(loop, cfg);
  shaper.set_forward_handler([](Packet) {});
  for (int i = 0; i < 10; ++i) shaper.send(data_packet(1000, i + 1));
  EXPECT_GT(shaper.dropped_bytes(), 0);
}

TEST(NetPath, RoutesDirectionsAndRtt) {
  ScenarioConfig cfg = constant_scenario(DataRate::mbps(10.0),
                                         DataRate::mbps(10.0));
  cfg.lte_rtt = milliseconds(60);
  Scenario scenario(cfg);
  NetPath& path = *scenario.cellular();
  EXPECT_EQ(path.base_rtt(), milliseconds(60));
  EXPECT_EQ(path.downlink().id(), 2 * kCellularPathId);
  EXPECT_EQ(path.uplink().id(), 2 * kCellularPathId + 1);
  EXPECT_EQ(scenario.wifi().downlink().id(), 2 * kWifiPathId);
  EXPECT_EQ(scenario.wifi().uplink().id(), 2 * kWifiPathId + 1);

  int down = 0, up = 0;
  path.set_downlink_deliver([&](Packet p) {
    ++down;
    EXPECT_EQ(p.path_id, kCellularPathId);  // stamped by the path
  });
  path.set_uplink_deliver([&](Packet) { ++up; });
  path.send_downlink(data_packet(500, 1));
  path.send_uplink(data_packet(500, 2));
  scenario.loop().run();
  EXPECT_EQ(down, 1);
  EXPECT_EQ(up, 1);
}

TEST(NetPath, DownlinkShaperThrottles) {
  ScenarioConfig cfg = constant_scenario(DataRate::mbps(10.0),
                                         DataRate::mbps(50.0));
  cfg.lte_rtt = kDurationZero;
  ShaperConfig shaper;
  shaper.rate = DataRate::kbps(700.0);
  shaper.burst = 1500;
  shaper.queue_capacity = 10'000'000;
  cfg.lte_throttle = shaper;
  Scenario scenario(cfg);
  NetPath& path = *scenario.cellular();

  TimePoint last = kTimeZero;
  path.set_downlink_deliver([&](Packet) { last = scenario.loop().now(); });
  // 88.5 KB at 87.5 KB/s (700 kbps) minus the burst: ~1 s.
  for (int i = 0; i < 89; ++i) path.send_downlink(data_packet(1000, i + 1));
  scenario.loop().run();
  EXPECT_GT(to_seconds(last), 0.9);
}

// --- fair queueing (DRR) on shared links --------------------------------

Packet flow_packet(int flow, Bytes wire, std::uint64_t id) {
  Packet p = data_packet(wire, id);
  p.flow = flow;
  return p;
}

LinkConfig fq_config() {
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(8.0));
  cfg.propagation_delay = kDurationZero;
  cfg.discipline = QueueDiscipline::kFairQueue;
  cfg.fq_quantum = 1500;
  return cfg;
}

TEST(FairQueue, DrrInterleavesABurstWithALateArrival) {
  // Flow 0 dumps its whole burst before flow 1 shows up. FIFO would
  // serve 0,0,0,0 first; DRR must alternate service from the second
  // packet on (the first was already on the wire).
  EventLoop loop;
  Link link(loop, fq_config());
  std::vector<int> order;
  link.set_deliver_handler([&](Packet p) { order.push_back(p.flow); });
  for (int i = 0; i < 4; ++i) link.send(flow_packet(0, 1000, i + 1));
  for (int i = 0; i < 4; ++i) link.send(flow_packet(1, 1000, 10 + i));
  loop.run();
  // Classic DRR with quantum 1.5×MTU: flow 0's first packet went out
  // before flow 1 existed, then each visit earns 1500 B — one packet on
  // the first visit (500 B carried), two on the next (2000 B credit) —
  // so service alternates in 1-then-2 packet bursts instead of FIFO's
  // solid run of four.
  const std::vector<int> want = {0, 0, 1, 0, 0, 1, 1, 1};
  EXPECT_EQ(order, want);
  EXPECT_EQ(link.delivered_bytes_for_flow(0), 4000);
  EXPECT_EQ(link.delivered_bytes_for_flow(1), 4000);
}

TEST(FairQueue, FifoOrderingIsPreservedUnderTheDefaultDiscipline) {
  // Same arrival pattern through the default FIFO queue: strict arrival
  // order, no interleaving — the single-tenant behavior is untouched.
  // Per-flow bytes are counted without any flow handler registered.
  EventLoop loop;
  LinkConfig cfg = fq_config();
  cfg.discipline = QueueDiscipline::kFifo;
  Link link(loop, cfg);
  std::vector<int> order;
  link.set_deliver_handler([&](Packet p) { order.push_back(p.flow); });
  for (int i = 0; i < 4; ++i) link.send(flow_packet(0, 1000, i + 1));
  for (int i = 0; i < 4; ++i) link.send(flow_packet(1, 1000, 10 + i));
  loop.run();
  const std::vector<int> want = {0, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_EQ(order, want);
  EXPECT_EQ(link.delivered_bytes_for_flow(1), 4000);
}

TEST(FairQueue, LongestQueueDropChargesTheAggressiveFlow) {
  // A 3000 B shared buffer, one aggressive flow and one light flow. The
  // drops — both the overflow arrivals and the shed backlog — must all
  // come out of the heavy flow; the light flow's packet rides through.
  EventLoop loop;
  LinkConfig cfg = fq_config();
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(1.0));
  cfg.queue_capacity = 3000;
  Link link(loop, cfg);
  int light_delivered = 0;
  link.set_deliver_handler([&](Packet p) {
    if (p.flow == 1) ++light_delivered;
  });
  for (int i = 0; i < 5; ++i) link.send(flow_packet(0, 1000, i + 1));
  link.send(flow_packet(1, 1000, 10));
  loop.run();
  EXPECT_EQ(light_delivered, 1);
  EXPECT_EQ(link.dropped_bytes_for_flow(1), 0);
  EXPECT_EQ(link.dropped_bytes_for_flow(0), 3000);
  EXPECT_EQ(link.delivered_bytes_for_flow(0), 2000);
}

TEST(FairQueue, LoneFlowAccumulatesQuantaForAJumboPacket) {
  // One flow, one packet bigger than the quantum: the flow must keep
  // earning quanta round after round until it can afford the packet
  // instead of livelocking the serializer.
  EventLoop loop;
  Link link(loop, fq_config());  // quantum 1500
  int delivered = 0;
  link.set_deliver_handler([&](Packet) { ++delivered; });
  link.send(flow_packet(3, 4000, 1));
  link.send(flow_packet(3, 1000, 2));
  loop.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.delivered_bytes_for_flow(3), 5000);
}

TEST(FairQueue, FlowDeliverHandlersDemux) {
  // Per-flow handlers receive exactly their flow; unregistered flows fall
  // back to the default handler.
  EventLoop loop;
  LinkConfig cfg = fq_config();
  cfg.discipline = QueueDiscipline::kFifo;
  Link link(loop, cfg);
  int flow1 = 0, fallback = 0;
  link.set_flow_deliver(1, [&](Packet p) {
    EXPECT_EQ(p.flow, 1);
    ++flow1;
  });
  link.set_deliver_handler([&](Packet p) {
    EXPECT_NE(p.flow, 1);
    ++fallback;
  });
  link.send(flow_packet(0, 1000, 1));
  link.send(flow_packet(1, 1000, 2));
  link.send(flow_packet(1, 1000, 3));
  loop.run();
  EXPECT_EQ(flow1, 2);
  EXPECT_EQ(fallback, 1);
  EXPECT_EQ(link.delivered_bytes_for_flow(1), 2000);
  EXPECT_EQ(link.delivered_bytes_for_flow(0), 1000);
}

}  // namespace
}  // namespace mpdash
