// Unit tests for the network substrate: codecs, fragmentation, NIC/link,
// bridge learning, ARP/ICMP/UDP, and TCP.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/net/bridge.h"
#include "src/net/frame.h"
#include "src/net/nic.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"

namespace kite {
namespace {

const Ipv4Addr kIpA = Ipv4Addr::FromOctets(10, 0, 0, 1);
const Ipv4Addr kIpB = Ipv4Addr::FromOctets(10, 0, 0, 2);

// --- Codecs. ---

TEST(FrameCodecTest, UdpRoundTripWithChecksum) {
  UdpDatagram udp;
  udp.src_port = 6000;
  udp.dst_port = 53;
  udp.payload = {1, 2, 3, 4, 5};
  Buffer bytes = SerializeUdp(udp, kIpA, kIpB);
  auto parsed = ParseUdp(bytes, kIpA, kIpB);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 6000);
  EXPECT_EQ(parsed->dst_port, 53);
  EXPECT_EQ(parsed->payload, udp.payload);
}

TEST(FrameCodecTest, UdpChecksumDetectsCorruption) {
  UdpDatagram udp;
  udp.src_port = 1;
  udp.dst_port = 2;
  udp.payload = {9, 9, 9};
  Buffer bytes = SerializeUdp(udp, kIpA, kIpB);
  bytes[9] ^= 0xff;  // Corrupt payload.
  EXPECT_FALSE(ParseUdp(bytes, kIpA, kIpB).has_value());
}

TEST(FrameCodecTest, IcmpRoundTrip) {
  IcmpMessage icmp;
  icmp.is_echo_request = true;
  icmp.ident = 0x1234;
  icmp.sequence = 7;
  icmp.payload.assign(56, 0xa5);
  Buffer bytes = SerializeIcmp(icmp);
  auto parsed = ParseIcmp(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_echo_request);
  EXPECT_EQ(parsed->ident, 0x1234);
  EXPECT_EQ(parsed->sequence, 7);
  EXPECT_EQ(parsed->payload.size(), 56u);
}

TEST(FrameCodecTest, TcpRoundTripFlags) {
  TcpSegment seg;
  seg.src_port = 80;
  seg.dst_port = 40000;
  seg.seq = 0xdeadbeef;
  seg.ack = 0x12345678;
  seg.syn = true;
  seg.ack_flag = true;
  seg.window = 4000;
  Buffer bytes = SerializeTcp(seg, kIpA, kIpB);
  auto parsed = ParseTcp(bytes, kIpA, kIpB);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->syn);
  EXPECT_TRUE(parsed->ack_flag);
  EXPECT_FALSE(parsed->fin);
  EXPECT_EQ(parsed->seq, 0xdeadbeefu);
  EXPECT_EQ(parsed->ack, 0x12345678u);
}

TEST(FrameCodecTest, Ipv4RoundTripAllProtocols) {
  for (uint8_t proto : {kIpProtoIcmp, kIpProtoUdp, kIpProtoTcp}) {
    Ipv4Packet p;
    p.src = kIpA;
    p.dst = kIpB;
    p.proto = proto;
    p.id = 99;
    if (proto == kIpProtoUdp) {
      UdpDatagram u;
      u.src_port = 1;
      u.dst_port = 2;
      u.payload = {42};
      p.l4 = u;
    } else if (proto == kIpProtoTcp) {
      TcpSegment t;
      t.src_port = 3;
      t.dst_port = 4;
      t.payload = {1, 2};
      p.l4 = t;
    } else {
      IcmpMessage m;
      m.payload = {5};
      p.l4 = m;
    }
    Buffer bytes = SerializeIpv4(p);
    auto parsed = ParseIpv4(bytes);
    ASSERT_TRUE(parsed.has_value()) << "proto " << int(proto);
    EXPECT_EQ(parsed->src, kIpA);
    EXPECT_EQ(parsed->dst, kIpB);
    EXPECT_EQ(parsed->proto, proto);
  }
}

TEST(FrameCodecTest, Ipv4HeaderChecksumDetectsCorruption) {
  Ipv4Packet p;
  p.src = kIpA;
  p.dst = kIpB;
  p.proto = kIpProtoUdp;
  UdpDatagram u;
  u.payload = {1};
  p.l4 = u;
  Buffer bytes = SerializeIpv4(p);
  bytes[12] ^= 0x01;  // Corrupt source address.
  EXPECT_FALSE(ParseIpv4(bytes).has_value());
}

TEST(FrameCodecTest, ArpAndEthernetRoundTrip) {
  ArpPacket arp;
  arp.is_request = true;
  arp.sender_mac = MacAddr::FromId(1);
  arp.sender_ip = kIpA;
  arp.target_ip = kIpB;
  EthernetFrame frame;
  frame.dst = MacAddr::Broadcast();
  frame.src = arp.sender_mac;
  frame.ethertype = kEtherTypeArp;
  frame.payload = arp;
  Buffer bytes = SerializeEthernet(frame);
  auto parsed = ParseEthernet(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->arp(), nullptr);
  EXPECT_TRUE(parsed->arp()->is_request);
  EXPECT_EQ(parsed->arp()->sender_ip, kIpA);
  EXPECT_EQ(parsed->src, arp.sender_mac);
}

// --- Fragmentation. ---

TEST(FragmentTest, SmallPacketUnchanged) {
  Ipv4Packet p;
  p.src = kIpA;
  p.dst = kIpB;
  p.proto = kIpProtoUdp;
  UdpDatagram u;
  u.payload.assign(100, 1);
  p.l4 = u;
  auto frags = FragmentIpv4(p);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_FALSE(frags[0].IsFragment());
}

TEST(FragmentTest, LargeUdpFragmentsAndReassembles) {
  Rng rng(3);
  Ipv4Packet p;
  p.src = kIpA;
  p.dst = kIpB;
  p.proto = kIpProtoUdp;
  p.id = 777;
  UdpDatagram u;
  u.src_port = 5;
  u.dst_port = 6;
  u.payload.resize(8192);
  for (auto& b : u.payload) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  const uint64_t digest = Fnv1a(u.payload);
  p.l4 = u;

  auto frags = FragmentIpv4(p);
  ASSERT_GT(frags.size(), 1u);
  for (size_t i = 0; i < frags.size(); ++i) {
    EXPECT_LE(frags[i].ByteSize(), kMtu);
    EXPECT_EQ(frags[i].more_frags, i + 1 < frags.size());
  }

  Ipv4Reassembler reasm;
  std::optional<Ipv4Packet> whole;
  for (const auto& f : frags) {
    auto r = reasm.Add(f);
    if (r.has_value()) {
      EXPECT_FALSE(whole.has_value());
      whole = r;
    }
  }
  ASSERT_TRUE(whole.has_value());
  const UdpDatagram* out = std::get_if<UdpDatagram>(&whole->l4);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->payload.size(), 8192u);
  EXPECT_EQ(Fnv1a(out->payload), digest);
}

TEST(FragmentTest, OutOfOrderReassembly) {
  Ipv4Packet p;
  p.src = kIpA;
  p.dst = kIpB;
  p.proto = kIpProtoUdp;
  p.id = 42;
  UdpDatagram u;
  u.payload.assign(5000, 0x5a);
  p.l4 = u;
  auto frags = FragmentIpv4(p);
  ASSERT_GE(frags.size(), 3u);
  std::swap(frags[0], frags[2]);
  Ipv4Reassembler reasm;
  std::optional<Ipv4Packet> whole;
  for (const auto& f : frags) {
    auto r = reasm.Add(f);
    if (r.has_value()) {
      whole = r;
    }
  }
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(std::get<UdpDatagram>(whole->l4).payload.size(), 5000u);
}

TEST(FragmentTest, InterleavedDatagramsKeptApart) {
  Ipv4Reassembler reasm;
  auto make = [](uint16_t id, uint8_t fill) {
    Ipv4Packet p;
    p.src = kIpA;
    p.dst = kIpB;
    p.proto = kIpProtoUdp;
    p.id = id;
    UdpDatagram u;
    u.payload.assign(4000, fill);
    p.l4 = u;
    return FragmentIpv4(p);
  };
  auto fa = make(1, 0xaa);
  auto fb = make(2, 0xbb);
  int completed = 0;
  for (size_t i = 0; i < std::max(fa.size(), fb.size()); ++i) {
    if (i < fa.size() && reasm.Add(fa[i]).has_value()) {
      ++completed;
    }
    if (i < fb.size() && reasm.Add(fb[i]).has_value()) {
      ++completed;
    }
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(reasm.pending_count(), 0u);
}

// Table-driven reassembly: each row feeds raw-L4 fragments in arrival order
// and names the datagrams that must complete (as runs of fill bytes, compared
// by digest) and how many partials must be left pending.
struct FragSpec {
  uint16_t id;
  uint16_t offset;
  uint16_t len;
  bool more;
  uint8_t fill;
};
using Runs = std::vector<std::pair<size_t, uint8_t>>;  // {length, fill byte}
struct ReassemblyCase {
  std::string name;
  std::vector<FragSpec> arrivals;
  std::vector<Runs> completed;
  size_t pending;
};

std::vector<ReassemblyCase> ReassemblyCases() {
  const Runs k123 = {{400, 1}, {400, 2}, {200, 3}};
  std::vector<ReassemblyCase> cases = {
      {"in_order", {{7, 0, 400, true, 1}, {7, 400, 400, true, 2}, {7, 800, 200, false, 3}},
       {k123}, 0},
      {"reversed", {{7, 800, 200, false, 3}, {7, 400, 400, true, 2}, {7, 0, 400, true, 1}},
       {k123}, 0},
      {"last_first", {{7, 800, 200, false, 3}, {7, 0, 400, true, 1}, {7, 400, 400, true, 2}},
       {k123}, 0},
      {"interleaved",
       {{1, 0, 400, true, 1}, {2, 0, 600, true, 4}, {1, 400, 400, true, 2},
        {2, 600, 400, false, 5}, {1, 800, 200, false, 3}},
       {{{600, 4}, {400, 5}}, k123}, 0},
      {"exact_duplicates",
       {{7, 0, 400, true, 1}, {7, 0, 400, true, 1}, {7, 400, 400, true, 2},
        {7, 800, 200, false, 3}},
       {k123}, 0},
      {"overlap_later_wins", {{7, 0, 600, true, 1}, {7, 400, 600, false, 2}},
       {{{400, 1}, {600, 2}}}, 0},
      {"overlap_inside_later_wins",
       {{7, 0, 800, true, 1}, {7, 200, 200, true, 2}, {7, 800, 200, false, 3}},
       {{{200, 1}, {200, 2}, {400, 1}, {200, 3}}}, 0},
      {"hole", {{7, 0, 400, true, 1}, {7, 800, 200, false, 3}}, {}, 1},
      // A last fragment plus bytes past its end is discarded, not completed
      // with a zero-filled hole; the later head starts a new partial.
      {"bytes_past_end",
       {{7, 900, 100, false, 1}, {7, 1000, 1000, true, 2}, {7, 0, 900, true, 3}}, {}, 1},
      {"bytes_past_end_before_last",
       {{7, 1000, 1000, true, 2}, {7, 900, 100, false, 1}, {7, 0, 900, true, 3}}, {}, 1},
      {"conflicting_last",
       {{7, 0, 300, true, 1}, {7, 400, 100, false, 2}, {7, 400, 200, false, 2}}, {}, 0},
      {"id_wraparound",
       {{65535, 0, 400, true, 1}, {0, 0, 400, true, 4}, {65535, 400, 400, false, 2},
        {0, 400, 400, false, 5}},
       {{{400, 1}, {400, 2}}, {{400, 4}, {400, 5}}}, 0},
  };
  // 257 partials: the first to arrive (a high ID) is evicted, while the
  // lowest ID, which arrived last, survives and then completes.
  ReassemblyCase evict{"evicts_first_arrival", {{60000, 0, 8, true, 9}}, {}, 256};
  for (uint16_t id = 1000; id < 1255; ++id) {
    evict.arrivals.push_back({id, 0, 8, true, 9});
  }
  evict.arrivals.push_back({0, 0, 8, true, 1});
  evict.arrivals.push_back({0, 8, 8, false, 2});
  evict.completed.push_back({{8, 1}, {8, 2}});
  evict.arrivals.push_back({60000, 8, 8, false, 9});  // Starts a new partial.
  cases.push_back(std::move(evict));
  return cases;
}

TEST(FragmentTest, ReassemblyTable) {
  for (const ReassemblyCase& c : ReassemblyCases()) {
    SCOPED_TRACE(c.name);
    Ipv4Reassembler reasm;
    std::vector<uint64_t> got;
    for (const FragSpec& f : c.arrivals) {
      Ipv4Packet frag;
      frag.src = kIpA;
      frag.dst = kIpB;
      frag.proto = 253;  // Experimental: delivered as raw L4 bytes.
      frag.id = f.id;
      frag.frag_offset = f.offset;
      frag.more_frags = f.more;
      frag.l4 = RawL4{Buffer(f.len, f.fill)};
      if (auto whole = reasm.Add(frag)) {
        EXPECT_FALSE(whole->IsFragment());
        got.push_back(Fnv1a(std::get<RawL4>(whole->l4).bytes));
      }
    }
    std::vector<uint64_t> want;
    for (const Runs& runs : c.completed) {
      Buffer bytes;
      for (auto [len, fill] : runs) {
        bytes.insert(bytes.end(), len, fill);
      }
      want.push_back(Fnv1a(bytes));
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(reasm.pending_count(), c.pending);
  }
}

// --- NIC + link. ---

class NicPairTest : public ::testing::Test {
 protected:
  NicPairTest() {
    a_ = std::make_unique<Nic>(&ex_, "a", "nicA", MacAddr::FromId(1));
    b_ = std::make_unique<Nic>(&ex_, "b", "nicB", MacAddr::FromId(2));
    Nic::ConnectBackToBack(a_.get(), b_.get());
  }

  EthernetFrame MakeFrame(size_t payload) {
    EthernetFrame f;
    f.dst = b_->mac();
    f.src = a_->mac();
    Ipv4Packet p;
    p.src = kIpA;
    p.dst = kIpB;
    p.proto = kIpProtoUdp;
    UdpDatagram u;
    u.payload.assign(payload, 7);
    p.l4 = u;
    f.payload = std::move(p);
    return f;
  }

  Executor ex_;
  std::unique_ptr<Nic> a_;
  std::unique_ptr<Nic> b_;
};

TEST_F(NicPairTest, FrameDelivered) {
  int received = 0;
  b_->netif()->SetInputHandler([&](const EthernetFrame&) { ++received; });
  a_->netif()->Output(MakeFrame(100));
  ex_.RunUntilIdle();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(b_->rx_delivered(), 1u);
}

TEST_F(NicPairTest, LineRateSerialization) {
  int received = 0;
  b_->netif()->SetInputHandler([&](const EthernetFrame&) { ++received; });
  // 1000 full-size frames at 10 Gbps: (1500+46)*8/10 ≈ 1.24 us each.
  for (int i = 0; i < 1000; ++i) {
    a_->netif()->Output(MakeFrame(1400));
  }
  ex_.RunUntilIdle();
  EXPECT_EQ(received, 1000);
  // Total elapsed is at least the serialization time of 1000 frames.
  const double frame_ns = (1400 + 28 + 20 + 14 + 24) * 8 / 10.0;
  EXPECT_GE(ex_.Now().ns(), static_cast<int64_t>(900 * frame_ns));
}

TEST_F(NicPairTest, TxOverflowDrops) {
  b_->netif()->SetInputHandler([&](const EthernetFrame&) {});
  for (int i = 0; i < 3000; ++i) {
    a_->netif()->Output(MakeFrame(1400));
  }
  // More than tx_queue_frames in flight at once: some dropped.
  EXPECT_GT(a_->tx_dropped(), 0u);
  ex_.RunUntilIdle();
  EXPECT_EQ(b_->rx_delivered() + a_->tx_dropped(), 3000u);
}

TEST_F(NicPairTest, UnconnectedNicDropsTx) {
  Nic lone(&ex_, "c", "nicC", MacAddr::FromId(3));
  lone.netif()->Output(MakeFrame(64));
  EXPECT_EQ(lone.tx_dropped(), 1u);
}

// --- Bridge. ---

class StubIf : public NetIf {
 public:
  StubIf(std::string name, MacAddr mac) : NetIf(std::move(name), mac) { SetUp(true); }
  void Output(const EthernetFrame& frame) override {
    ++out_count;
    last = frame;
  }
  int out_count = 0;
  EthernetFrame last;
};

EthernetFrame FrameBetween(MacAddr src, MacAddr dst) {
  EthernetFrame f;
  f.src = src;
  f.dst = dst;
  Ipv4Packet p;
  p.proto = kIpProtoUdp;
  p.l4 = UdpDatagram{};
  f.payload = std::move(p);
  return f;
}

TEST(BridgeTest, LearnsAndForwards) {
  Bridge bridge("br0", nullptr);
  StubIf p1("p1", MacAddr::FromId(1));
  StubIf p2("p2", MacAddr::FromId(2));
  StubIf p3("p3", MacAddr::FromId(3));
  bridge.AddIf(&p1);
  bridge.AddIf(&p2);
  bridge.AddIf(&p3);

  MacAddr h1 = MacAddr::FromId(0x11);
  MacAddr h2 = MacAddr::FromId(0x22);

  // Unknown destination: flood to all but ingress.
  p1.InjectInput(FrameBetween(h1, h2));
  EXPECT_EQ(p2.out_count, 1);
  EXPECT_EQ(p3.out_count, 1);
  EXPECT_EQ(p1.out_count, 0);
  EXPECT_EQ(bridge.LookupFdb(h1), &p1);

  // Reply: h2 behind p2. Learned h1 → unicast to p1 only.
  p2.InjectInput(FrameBetween(h2, h1));
  EXPECT_EQ(p1.out_count, 1);
  EXPECT_EQ(p3.out_count, 1);  // Unchanged.

  // Now h1 → h2 goes straight to p2.
  p1.InjectInput(FrameBetween(h1, h2));
  EXPECT_EQ(p2.out_count, 2);
  EXPECT_EQ(p3.out_count, 1);
  EXPECT_EQ(bridge.forwarded(), 2u);
}

TEST(BridgeTest, BroadcastFloods) {
  Bridge bridge("br0", nullptr);
  StubIf p1("p1", MacAddr::FromId(1));
  StubIf p2("p2", MacAddr::FromId(2));
  bridge.AddIf(&p1);
  bridge.AddIf(&p2);
  p1.InjectInput(FrameBetween(MacAddr::FromId(0x11), MacAddr::Broadcast()));
  EXPECT_EQ(p2.out_count, 1);
  EXPECT_EQ(p1.out_count, 0);
}

TEST(BridgeTest, RemoveIfFlushesFdb) {
  Bridge bridge("br0", nullptr);
  StubIf p1("p1", MacAddr::FromId(1));
  StubIf p2("p2", MacAddr::FromId(2));
  bridge.AddIf(&p1);
  bridge.AddIf(&p2);
  MacAddr h1 = MacAddr::FromId(0x11);
  p1.InjectInput(FrameBetween(h1, MacAddr::Broadcast()));
  EXPECT_EQ(bridge.LookupFdb(h1), &p1);
  bridge.RemoveIf(&p1);
  EXPECT_EQ(bridge.LookupFdb(h1), nullptr);
  EXPECT_EQ(bridge.port_count(), 1);
}

TEST(BridgeTest, DownPortNotFloodedTo) {
  Bridge bridge("br0", nullptr);
  StubIf p1("p1", MacAddr::FromId(1));
  StubIf p2("p2", MacAddr::FromId(2));
  bridge.AddIf(&p1);
  bridge.AddIf(&p2);
  p2.SetUp(false);
  p1.InjectInput(FrameBetween(MacAddr::FromId(0x11), MacAddr::Broadcast()));
  EXPECT_EQ(p2.out_count, 0);
}

// --- Stack: ARP, ping, UDP, TCP over a direct NIC pair. ---

class StackPairTest : public ::testing::Test {
 protected:
  StackPairTest() {
    nic_a_ = std::make_unique<Nic>(&ex_, "a", "nicA", MacAddr::FromId(1));
    nic_b_ = std::make_unique<Nic>(&ex_, "b", "nicB", MacAddr::FromId(2));
    Nic::ConnectBackToBack(nic_a_.get(), nic_b_.get());
    stack_a_ = std::make_unique<EtherStack>(&ex_, nullptr, nic_a_->netif());
    stack_b_ = std::make_unique<EtherStack>(&ex_, nullptr, nic_b_->netif());
    stack_a_->ConfigureIp(kIpA);
    stack_b_->ConfigureIp(kIpB);
  }

  Executor ex_;
  std::unique_ptr<Nic> nic_a_, nic_b_;
  std::unique_ptr<EtherStack> stack_a_, stack_b_;
};

TEST_F(StackPairTest, PingResolvesArpAndCompletes) {
  bool done = false;
  SimDuration rtt;
  stack_a_->Ping(kIpB, 56, [&](bool ok, SimDuration d) {
    EXPECT_TRUE(ok);
    done = true;
    rtt = d;
  });
  ex_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_GT(rtt.ns(), 0);
  EXPECT_TRUE(stack_a_->HasArpEntry(kIpB));
  EXPECT_EQ(stack_a_->arp_requests_sent(), 1u);
}

TEST_F(StackPairTest, SecondPingSkipsArp) {
  int done = 0;
  stack_a_->Ping(kIpB, 56, [&](bool ok, SimDuration) { done += ok; });
  ex_.RunUntilIdle();
  stack_a_->Ping(kIpB, 56, [&](bool ok, SimDuration) { done += ok; });
  ex_.RunUntilIdle();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(stack_a_->arp_requests_sent(), 1u);
}

TEST_F(StackPairTest, PingToNowhereTimesOut) {
  bool ok = true;
  stack_a_->Ping(Ipv4Addr::FromOctets(10, 0, 0, 99), 56,
                 [&](bool r, SimDuration) { ok = r; }, Millis(100));
  ex_.RunUntilIdle();
  EXPECT_FALSE(ok);
}

TEST_F(StackPairTest, UdpDatagramDelivery) {
  auto server = stack_b_->OpenUdp();
  server->Bind(9000);
  Buffer got;
  Ipv4Addr from;
  server->SetRecvCallback([&](Ipv4Addr src, uint16_t, const Buffer& payload) {
    from = src;
    got = payload;
  });
  auto client = stack_a_->OpenUdp();
  client->SendTo(kIpB, 9000, Buffer{1, 2, 3});
  ex_.RunUntilIdle();
  EXPECT_EQ(got, (Buffer{1, 2, 3}));
  EXPECT_EQ(from, kIpA);
}

TEST_F(StackPairTest, LargeUdpFragmentsAcrossWire) {
  auto server = stack_b_->OpenUdp();
  server->Bind(9000);
  size_t got = 0;
  server->SetRecvCallback(
      [&](Ipv4Addr, uint16_t, const Buffer& payload) { got = payload.size(); });
  auto client = stack_a_->OpenUdp();
  Buffer big(8000, 0x3c);
  client->SendTo(kIpB, 9000, big);
  ex_.RunUntilIdle();
  EXPECT_EQ(got, 8000u);
}

TEST_F(StackPairTest, UdpToUnboundPortDropped) {
  auto client = stack_a_->OpenUdp();
  client->SendTo(kIpB, 12345, Buffer{1});
  ex_.RunUntilIdle();
  SUCCEED();  // No crash, silently dropped.
}

TEST_F(StackPairTest, TcpConnectTransferClose) {
  Buffer received;
  bool server_closed = false;
  stack_b_->ListenTcp(8080, [&](TcpConn* conn) {
    conn->SetDataCallback([&received, conn](std::span<const uint8_t> data) {
      received.insert(received.end(), data.begin(), data.end());
      if (received.size() >= 10) {
        conn->Send(Buffer{0xca, 0xfe});
        conn->Close();
      }
    });
    conn->SetCloseCallback([&] { server_closed = true; });
  });

  Buffer reply;
  bool connected = false;
  TcpConn* c = stack_a_->ConnectTcp(kIpB, 8080, [&](TcpConn* conn) {
    connected = true;
    conn->Send(Buffer(10, 0x42));
  });
  c->SetDataCallback([&](std::span<const uint8_t> data) {
    reply.insert(reply.end(), data.begin(), data.end());
  });
  ex_.RunUntilIdle();
  EXPECT_TRUE(connected);
  EXPECT_EQ(received.size(), 10u);
  EXPECT_EQ(reply, (Buffer{0xca, 0xfe}));
}

TEST_F(StackPairTest, TcpBulkTransferIntegrity) {
  Rng rng(11);
  Buffer payload(512 * 1024);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  const uint64_t digest = Fnv1a(payload);

  Buffer received;
  stack_b_->ListenTcp(8080, [&](TcpConn* conn) {
    conn->SetDataCallback([&](std::span<const uint8_t> data) {
      received.insert(received.end(), data.begin(), data.end());
    });
  });
  stack_a_->ConnectTcp(kIpB, 8080, [&](TcpConn* conn) { conn->Send(payload); });
  ex_.RunUntilIdle();
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(Fnv1a(received), digest);
}

TEST_F(StackPairTest, TcpConnectToClosedPortRst) {
  bool closed = false;
  TcpConn* c = stack_a_->ConnectTcp(kIpB, 4444, [&](TcpConn*) { FAIL(); });
  c->SetCloseCallback([&] { closed = true; });
  ex_.RunUntilIdle();
  EXPECT_TRUE(closed);
}

TEST_F(StackPairTest, TcpManyConnectionsConcurrently) {
  int server_count = 0;
  stack_b_->ListenTcp(8080, [&](TcpConn* conn) {
    conn->SetDataCallback([conn, &server_count](std::span<const uint8_t> data) {
      ++server_count;
      conn->Send(Buffer(data.begin(), data.end()));  // Echo.
    });
  });
  int echoed = 0;
  for (int i = 0; i < 20; ++i) {
    TcpConn* c = stack_a_->ConnectTcp(kIpB, 8080,
                                      [](TcpConn* conn) { conn->Send(Buffer(100, 1)); });
    c->SetDataCallback([&echoed](std::span<const uint8_t>) { ++echoed; });
  }
  ex_.RunUntilIdle();
  EXPECT_EQ(server_count, 20);
  EXPECT_EQ(echoed, 20);
}

}  // namespace
}  // namespace kite
