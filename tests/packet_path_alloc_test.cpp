// Heap-allocation gate for the FIFO packet path. It replaces the global
// operator new to count allocations, so it is an executable of its own:
// every other test binary keeps the library's allocator.
//
// After a warm-up, a packet that crosses a FIFO link allocates nothing:
// the queue is a ring that keeps its storage, a propagating packet waits
// in the link's in-flight slab, and its delivery event captures only a
// slot index. Above the link, an MPTCP bulk transfer still allocates its
// payload references (one vector per data packet, copied once into the
// packet), but neither the scheduler's snapshots nor reassembly allocate
// per packet.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "exp/scenario.h"
#include "link/link.h"
#include "mptcp/connection.h"
#include "mptcp/wire_data.h"
#include "sim/event_loop.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mpdash {
namespace {

// Keeps `window` payload-free packets on a FIFO link, sending the next
// one as each arrives, the way an ack clock keeps a path busy.
class WindowedSender {
 public:
  WindowedSender(EventLoop& loop, Link& link) : loop_(loop), link_(link) {
    link_.set_deliver_handler([this](Packet) {
      ++delivered_;
      if (left_ > 0) send();
    });
  }

  void run(int packets, int window) {
    left_ = packets;
    for (int i = 0; i < window && left_ > 0; ++i) send();
    loop_.run();
  }
  int delivered() const { return delivered_; }

 private:
  void send() {
    --left_;
    Packet p;
    p.kind = PacketKind::kData;
    p.wire_size = 1500;
    link_.send(p);
  }

  EventLoop& loop_;
  Link& link_;
  int left_ = 0;
  int delivered_ = 0;
};

TEST(PacketPathAlloc, FifoLinkSendAndDeliverAllocateNothing) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate = BandwidthTrace::constant(DataRate::mbps(50.0));
  cfg.propagation_delay = milliseconds(20);
  Link link(loop, cfg);
  WindowedSender sender(loop, link);
  sender.run(1'000, 64);
  const std::size_t before = g_allocations;
  sender.run(100'000, 64);
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(sender.delivered(), 101'000);
  EXPECT_EQ(link.delivered_packets(), 101'000u);
  EXPECT_EQ(link.dropped_packets(), 0u);
}

std::size_t delivered_link_packets(Scenario& sc) {
  std::size_t n = 0;
  for (NetPath* p : sc.paths()) {
    n += p->downlink().delivered_packets() + p->uplink().delivered_packets();
  }
  return n;
}

// Unequal RTTs: min-RTT fills the short path first and spills onto the
// long one, so the client reassembles a large share of the stream out of
// order.
TEST(PacketPathAlloc, MptcpBulkTransferAllocatesOnlyPayloadReferences) {
  ScenarioConfig net =
      constant_scenario(DataRate::mbps(20.0), DataRate::mbps(12.0));
  net.wifi_rtt = milliseconds(20);
  net.lte_rtt = milliseconds(70);
  Scenario sc(net);
  MptcpConnection conn(sc.loop(), sc.paths());
  conn.server().send(wire_virtual(megabytes(2)));
  sc.loop().run();
  const std::size_t packets_before = delivered_link_packets(sc);
  const Bytes lte_before = conn.client().delivered_payload_bytes(1);

  const std::size_t before = g_allocations;
  conn.server().send(wire_virtual(megabytes(30)));
  sc.loop().run();
  const std::size_t allocations = g_allocations - before;

  const std::size_t packets = delivered_link_packets(sc) - packets_before;
  ASSERT_GT(packets, 40'000u);
  EXPECT_EQ(conn.client().bytes_received_in_order(),
            static_cast<std::uint64_t>(megabytes(32)));
  EXPECT_GT(conn.client().delivered_payload_bytes(1) - lte_before,
            megabytes(5));
  const double per_packet =
      static_cast<double>(allocations) / static_cast<double>(packets);
  EXPECT_LE(per_packet, 1.2) << allocations << " allocations over "
                             << packets << " delivered link packets";
}

}  // namespace
}  // namespace mpdash
