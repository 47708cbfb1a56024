#include "src/net/frame.h"

#include <algorithm>

#include "src/base/log.h"

namespace kite {
namespace {

// Pseudo-header checksum seed for UDP/TCP (RFC 768/793).
uint32_t PseudoHeaderSum(Ipv4Addr src, Ipv4Addr dst, uint8_t proto, size_t l4_len) {
  uint32_t sum = 0;
  sum += src.value >> 16;
  sum += src.value & 0xffff;
  sum += dst.value >> 16;
  sum += dst.value & 0xffff;
  sum += proto;
  sum += static_cast<uint32_t>(l4_len);
  return sum;
}

uint16_t ChecksumWithPseudo(std::span<const uint8_t> l4, Ipv4Addr src, Ipv4Addr dst,
                            uint8_t proto) {
  // Fold the pseudo header into the initial accumulator (already 16-bit
  // chunks, InternetChecksum folds carries).
  return InternetChecksum(l4, PseudoHeaderSum(src, dst, proto, l4.size()));
}

}  // namespace

size_t Ipv4Packet::L4Bytes() const {
  return std::visit([](const auto& p) { return p.ByteSize(); }, l4);
}

size_t EthernetFrame::PayloadBytes() const {
  return std::visit([](const auto& p) { return p.ByteSize(); }, payload);
}

size_t EthernetFrame::WireBytes() const {
  size_t body = kEthernetHeaderBytes + PayloadBytes();
  if (body < 60) {
    body = 60;  // Minimum Ethernet frame (without FCS).
  }
  // Preamble (8) + FCS (4) + inter-frame gap (12).
  return body + 24;
}

// --- UDP. ---

void SerializeUdpInto(const UdpDatagram& udp, Ipv4Addr src, Ipv4Addr dst, Buffer* out) {
  const size_t base = out->size();
  ByteWriter w(out);
  w.U16(udp.src_port);
  w.U16(udp.dst_port);
  w.U16(static_cast<uint16_t>(kUdpHeaderBytes + udp.payload.size()));
  w.U16(0);  // Checksum placeholder.
  w.Raw(udp.payload);
  uint16_t csum = ChecksumWithPseudo(
      std::span<const uint8_t>(out->data() + base, out->size() - base), src, dst,
      kIpProtoUdp);
  if (csum == 0) {
    csum = 0xffff;  // RFC 768: transmitted as all-ones.
  }
  (*out)[base + 6] = static_cast<uint8_t>(csum >> 8);
  (*out)[base + 7] = static_cast<uint8_t>(csum);
}

Buffer SerializeUdp(const UdpDatagram& udp, Ipv4Addr src, Ipv4Addr dst) {
  Buffer out;
  out.reserve(udp.ByteSize());
  SerializeUdpInto(udp, src, dst, &out);
  return out;
}

std::optional<UdpDatagram> ParseUdp(std::span<const uint8_t> data, Ipv4Addr src,
                                    Ipv4Addr dst, bool verify_checksum) {
  ByteReader r(data);
  UdpDatagram udp;
  udp.src_port = r.U16();
  udp.dst_port = r.U16();
  uint16_t len = r.U16();
  r.U16();  // Checksum.
  if (!r.ok() || len < kUdpHeaderBytes || len > data.size()) {
    return std::nullopt;
  }
  udp.payload.assign(data.begin() + kUdpHeaderBytes, data.begin() + len);
  if (verify_checksum) {
    // Recomputing over the full datagram (checksum field included) must give
    // zero for a valid packet.
    uint16_t check = InternetChecksum(data.subspan(0, len),
                                      PseudoHeaderSum(src, dst, kIpProtoUdp, len));
    if (check != 0 && check != 0xffff) {
      return std::nullopt;
    }
  }
  return udp;
}

// --- ICMP. ---

void SerializeIcmpInto(const IcmpMessage& icmp, Buffer* out) {
  const size_t base = out->size();
  ByteWriter w(out);
  w.U8(icmp.is_echo_request ? 8 : 0);
  w.U8(0);   // Code.
  w.U16(0);  // Checksum placeholder.
  w.U16(icmp.ident);
  w.U16(icmp.sequence);
  w.Raw(icmp.payload);
  uint16_t csum = InternetChecksum(
      std::span<const uint8_t>(out->data() + base, out->size() - base));
  (*out)[base + 2] = static_cast<uint8_t>(csum >> 8);
  (*out)[base + 3] = static_cast<uint8_t>(csum);
}

Buffer SerializeIcmp(const IcmpMessage& icmp) {
  Buffer out;
  out.reserve(icmp.ByteSize());
  SerializeIcmpInto(icmp, &out);
  return out;
}

std::optional<IcmpMessage> ParseIcmp(std::span<const uint8_t> data, bool verify_checksum) {
  if (data.size() < 8) {
    return std::nullopt;
  }
  if (verify_checksum && InternetChecksum(data) != 0) {
    return std::nullopt;
  }
  ByteReader r(data);
  IcmpMessage icmp;
  uint8_t type = r.U8();
  r.U8();
  r.U16();
  icmp.ident = r.U16();
  icmp.sequence = r.U16();
  if (type == 8) {
    icmp.is_echo_request = true;
  } else if (type == 0) {
    icmp.is_echo_request = false;
  } else {
    return std::nullopt;
  }
  icmp.payload.assign(data.begin() + 8, data.end());
  return icmp;
}

// --- TCP. ---

void SerializeTcpInto(const TcpSegment& tcp, Ipv4Addr src, Ipv4Addr dst, Buffer* out) {
  const size_t base = out->size();
  ByteWriter w(out);
  w.U16(tcp.src_port);
  w.U16(tcp.dst_port);
  w.U32(tcp.seq);
  w.U32(tcp.ack);
  uint8_t flags = 0;
  if (tcp.fin) flags |= 0x01;
  if (tcp.syn) flags |= 0x02;
  if (tcp.rst) flags |= 0x04;
  if (tcp.ack_flag) flags |= 0x10;
  w.U8(5 << 4);  // Data offset: 5 words, no options.
  w.U8(flags);
  w.U16(static_cast<uint16_t>(std::min<uint32_t>(tcp.window, 0xffff)));
  w.U16(0);  // Checksum placeholder.
  w.U16(0);  // Urgent pointer.
  w.Raw(tcp.payload);
  uint16_t csum = ChecksumWithPseudo(
      std::span<const uint8_t>(out->data() + base, out->size() - base), src, dst,
      kIpProtoTcp);
  (*out)[base + 16] = static_cast<uint8_t>(csum >> 8);
  (*out)[base + 17] = static_cast<uint8_t>(csum);
}

Buffer SerializeTcp(const TcpSegment& tcp, Ipv4Addr src, Ipv4Addr dst) {
  Buffer out;
  out.reserve(tcp.ByteSize());
  SerializeTcpInto(tcp, src, dst, &out);
  return out;
}

std::optional<TcpSegment> ParseTcp(std::span<const uint8_t> data, Ipv4Addr src,
                                   Ipv4Addr dst, bool verify_checksum) {
  if (data.size() < kTcpHeaderBytes) {
    return std::nullopt;
  }
  if (verify_checksum) {
    uint16_t check =
        InternetChecksum(data, PseudoHeaderSum(src, dst, kIpProtoTcp, data.size()));
    if (check != 0) {
      return std::nullopt;
    }
  }
  ByteReader r(data);
  TcpSegment tcp;
  tcp.src_port = r.U16();
  tcp.dst_port = r.U16();
  tcp.seq = r.U32();
  tcp.ack = r.U32();
  uint8_t offset = r.U8() >> 4;
  uint8_t flags = r.U8();
  tcp.fin = (flags & 0x01) != 0;
  tcp.syn = (flags & 0x02) != 0;
  tcp.rst = (flags & 0x04) != 0;
  tcp.ack_flag = (flags & 0x10) != 0;
  tcp.window = r.U16();
  const size_t header_len = static_cast<size_t>(offset) * 4;
  if (header_len < kTcpHeaderBytes || header_len > data.size()) {
    return std::nullopt;
  }
  tcp.payload.assign(data.begin() + header_len, data.end());
  return tcp;
}

// --- IPv4. ---

void SerializeIpv4Into(const Ipv4Packet& packet, Buffer* out) {
  const size_t base = out->size();
  ByteWriter w(out);
  w.U8(0x45);  // Version 4, IHL 5.
  w.U8(0);     // DSCP/ECN.
  w.U16(0);    // Total length placeholder (patched after the L4 append).
  w.U16(packet.id);
  uint16_t frag_field = static_cast<uint16_t>((packet.frag_offset / 8) & 0x1fff);
  if (packet.more_frags) {
    frag_field |= 0x2000;
  }
  w.U16(frag_field);
  w.U8(packet.ttl);
  w.U8(packet.proto);
  w.U16(0);  // Header checksum placeholder.
  w.U32(packet.src.value);
  w.U32(packet.dst.value);
  // Serialize the L4 straight into the output (no intermediate buffer).
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, UdpDatagram>) {
          SerializeUdpInto(p, packet.src, packet.dst, out);
        } else if constexpr (std::is_same_v<T, IcmpMessage>) {
          SerializeIcmpInto(p, out);
        } else if constexpr (std::is_same_v<T, TcpSegment>) {
          SerializeTcpInto(p, packet.src, packet.dst, out);
        } else {
          out->insert(out->end(), p.bytes.begin(), p.bytes.end());
        }
      },
      packet.l4);
  const uint16_t total_len = static_cast<uint16_t>(out->size() - base);
  (*out)[base + 2] = static_cast<uint8_t>(total_len >> 8);
  (*out)[base + 3] = static_cast<uint8_t>(total_len);
  uint16_t csum = InternetChecksum(
      std::span<const uint8_t>(out->data() + base, kIpv4HeaderBytes));
  (*out)[base + 10] = static_cast<uint8_t>(csum >> 8);
  (*out)[base + 11] = static_cast<uint8_t>(csum);
}

Buffer SerializeIpv4(const Ipv4Packet& packet) {
  Buffer out;
  out.reserve(packet.ByteSize());
  SerializeIpv4Into(packet, &out);
  return out;
}

std::optional<Ipv4Packet> ParseIpv4(std::span<const uint8_t> data, bool verify_checksum) {
  if (data.size() < kIpv4HeaderBytes) {
    return std::nullopt;
  }
  ByteReader r(data);
  uint8_t vihl = r.U8();
  if ((vihl >> 4) != 4) {
    return std::nullopt;
  }
  const size_t header_len = static_cast<size_t>(vihl & 0x0f) * 4;
  r.U8();
  uint16_t total_len = r.U16();
  if (header_len < kIpv4HeaderBytes || total_len < header_len || total_len > data.size()) {
    return std::nullopt;
  }
  if (verify_checksum && InternetChecksum(data.subspan(0, header_len)) != 0) {
    return std::nullopt;
  }
  Ipv4Packet packet;
  packet.id = r.U16();
  uint16_t frag_field = r.U16();
  packet.more_frags = (frag_field & 0x2000) != 0;
  packet.frag_offset = static_cast<uint16_t>((frag_field & 0x1fff) * 8);
  packet.ttl = r.U8();
  packet.proto = r.U8();
  r.U16();  // Checksum.
  packet.src.value = r.U32();
  packet.dst.value = r.U32();
  std::span<const uint8_t> l4 = data.subspan(header_len, total_len - header_len);
  if (packet.IsFragment()) {
    packet.l4 = RawL4{Buffer(l4.begin(), l4.end())};
    return packet;
  }
  switch (packet.proto) {
    case kIpProtoUdp: {
      auto udp = ParseUdp(l4, packet.src, packet.dst);
      if (!udp.has_value()) {
        return std::nullopt;
      }
      packet.l4 = std::move(*udp);
      break;
    }
    case kIpProtoIcmp: {
      auto icmp = ParseIcmp(l4);
      if (!icmp.has_value()) {
        return std::nullopt;
      }
      packet.l4 = std::move(*icmp);
      break;
    }
    case kIpProtoTcp: {
      auto tcp = ParseTcp(l4, packet.src, packet.dst);
      if (!tcp.has_value()) {
        return std::nullopt;
      }
      packet.l4 = std::move(*tcp);
      break;
    }
    default:
      packet.l4 = RawL4{Buffer(l4.begin(), l4.end())};
      break;
  }
  return packet;
}

// --- ARP. ---

void SerializeArpInto(const ArpPacket& arp, Buffer* out) {
  ByteWriter w(out);
  w.U16(1);       // Hardware type: Ethernet.
  w.U16(0x0800);  // Protocol type: IPv4.
  w.U8(6);
  w.U8(4);
  w.U16(arp.is_request ? 1 : 2);
  w.Raw(arp.sender_mac.octets);
  w.U32(arp.sender_ip.value);
  w.Raw(arp.target_mac.octets);
  w.U32(arp.target_ip.value);
}

Buffer SerializeArp(const ArpPacket& arp) {
  Buffer out;
  out.reserve(arp.ByteSize());
  SerializeArpInto(arp, &out);
  return out;
}

std::optional<ArpPacket> ParseArp(std::span<const uint8_t> data) {
  if (data.size() < 28) {
    return std::nullopt;
  }
  ByteReader r(data);
  if (r.U16() != 1 || r.U16() != 0x0800 || r.U8() != 6 || r.U8() != 4) {
    return std::nullopt;
  }
  uint16_t op = r.U16();
  ArpPacket arp;
  arp.is_request = op == 1;
  if (op != 1 && op != 2) {
    return std::nullopt;
  }
  r.Raw(arp.sender_mac.octets);
  arp.sender_ip.value = r.U32();
  r.Raw(arp.target_mac.octets);
  arp.target_ip.value = r.U32();
  return arp;
}

// --- Ethernet. ---

void SerializeEthernetInto(const EthernetFrame& frame, Buffer* out) {
  ByteWriter w(out);
  w.Raw(frame.dst.octets);
  w.Raw(frame.src.octets);
  w.U16(frame.ethertype);
  if (const ArpPacket* arp = frame.arp()) {
    SerializeArpInto(*arp, out);
  } else {
    SerializeIpv4Into(*frame.ip(), out);
  }
}

Buffer SerializeEthernet(const EthernetFrame& frame) {
  Buffer out;
  out.reserve(kEthernetHeaderBytes + frame.PayloadBytes());
  SerializeEthernetInto(frame, &out);
  return out;
}

std::optional<EthernetFrame> ParseEthernet(std::span<const uint8_t> data) {
  if (data.size() < kEthernetHeaderBytes) {
    return std::nullopt;
  }
  EthernetFrame frame;
  ByteReader r(data);
  r.Raw(frame.dst.octets);
  r.Raw(frame.src.octets);
  frame.ethertype = r.U16();
  std::span<const uint8_t> body = data.subspan(kEthernetHeaderBytes);
  if (frame.ethertype == kEtherTypeArp) {
    auto arp = ParseArp(body);
    if (!arp.has_value()) {
      return std::nullopt;
    }
    frame.payload = *arp;
  } else if (frame.ethertype == kEtherTypeIpv4) {
    auto ip = ParseIpv4(body);
    if (!ip.has_value()) {
      return std::nullopt;
    }
    frame.payload = std::move(*ip);
  } else {
    return std::nullopt;
  }
  return frame;
}

// --- Fragmentation. ---

std::vector<Ipv4Packet> FragmentIpv4(const Ipv4Packet& packet, size_t mtu) {
  const size_t max_l4 = mtu - kIpv4HeaderBytes;
  if (packet.L4Bytes() <= max_l4) {
    return {packet};
  }
  // Serialize the transport payload once, then slice into 8-byte-aligned
  // fragments (the IP fragment-offset unit).
  Buffer l4;
  l4.reserve(packet.L4Bytes());
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, UdpDatagram>) {
          SerializeUdpInto(p, packet.src, packet.dst, &l4);
        } else if constexpr (std::is_same_v<T, IcmpMessage>) {
          SerializeIcmpInto(p, &l4);
        } else if constexpr (std::is_same_v<T, TcpSegment>) {
          SerializeTcpInto(p, packet.src, packet.dst, &l4);
        } else {
          l4 = p.bytes;
        }
      },
      packet.l4);

  const size_t chunk = max_l4 & ~size_t{7};
  std::vector<Ipv4Packet> fragments;
  for (size_t off = 0; off < l4.size(); off += chunk) {
    const size_t len = std::min(chunk, l4.size() - off);
    Ipv4Packet frag;
    frag.src = packet.src;
    frag.dst = packet.dst;
    frag.proto = packet.proto;
    frag.ttl = packet.ttl;
    frag.id = packet.id;
    frag.frag_offset = static_cast<uint16_t>(off);
    frag.more_frags = off + len < l4.size();
    frag.l4 = RawL4{Buffer(l4.begin() + off, l4.begin() + off + len)};
    fragments.push_back(std::move(frag));
  }
  return fragments;
}

void Ipv4Reassembler::Drop(std::map<Key, Partial>::iterator it) {
  arrival_order_.erase(it->second.arrival);
  pending_.erase(it);
}

std::optional<Ipv4Packet> Ipv4Reassembler::Add(const Ipv4Packet& fragment) {
  if (!fragment.IsFragment()) {
    return fragment;
  }
  const RawL4* raw = std::get_if<RawL4>(&fragment.l4);
  KITE_CHECK(raw != nullptr) << "fragments must carry raw L4 bytes";
  Key key{fragment.src.value, fragment.dst.value, fragment.id, fragment.proto};
  auto [it, fresh] = pending_.try_emplace(key);
  Partial& part = it->second;
  if (fresh) {
    part.arrival = arrival_order_.insert(arrival_order_.end(), key);
  }
  size_t begin = fragment.frag_offset;
  size_t end = begin + raw->bytes.size();
  // As in Linux's ip_frag_queue, a datagram with two different ends or with
  // bytes past its end is discarded.
  bool corrupt = false;
  if (!fragment.more_frags) {
    corrupt = part.total_len != 0 && part.total_len != end;
    part.total_len = end;
  }
  if (part.bytes.size() < end) {
    part.bytes.resize(end);
  }
  std::copy(raw->bytes.begin(), raw->bytes.end(), part.bytes.begin() + begin);
  // Merge [begin, end) with every range it overlaps or touches.
  auto first = std::lower_bound(part.have.begin(), part.have.end(), begin,
                                [](const auto& r, size_t b) { return r.second < b; });
  auto last = first;
  for (; last != part.have.end() && last->first <= end; ++last) {
    begin = std::min(begin, last->first);
    end = std::max(end, last->second);
  }
  part.have.insert(part.have.erase(first, last), {begin, end});
  if (corrupt || (part.total_len != 0 && part.have.back().second > part.total_len)) {
    Drop(it);
    return std::nullopt;
  }
  if (part.total_len == 0 || part.have.front() != std::pair<size_t, size_t>{0, part.total_len}) {
    if (pending_.size() > max_pending_) {
      Drop(pending_.find(arrival_order_.front()));
    }
    return std::nullopt;
  }
  // Complete: rebuild the packet with a parsed L4.
  Buffer l4 = std::move(part.bytes);
  Drop(it);
  Ipv4Packet whole;
  whole.src = fragment.src;
  whole.dst = fragment.dst;
  whole.proto = fragment.proto;
  whole.ttl = fragment.ttl;
  whole.id = fragment.id;
  switch (whole.proto) {
    case kIpProtoUdp: {
      auto udp = ParseUdp(l4, whole.src, whole.dst);
      if (!udp.has_value()) {
        return std::nullopt;
      }
      whole.l4 = std::move(*udp);
      break;
    }
    case kIpProtoIcmp: {
      auto icmp = ParseIcmp(l4);
      if (!icmp.has_value()) {
        return std::nullopt;
      }
      whole.l4 = std::move(*icmp);
      break;
    }
    case kIpProtoTcp: {
      auto tcp = ParseTcp(l4, whole.src, whole.dst);
      if (!tcp.has_value()) {
        return std::nullopt;
      }
      whole.l4 = std::move(*tcp);
      break;
    }
    default:
      whole.l4 = RawL4{std::move(l4)};
      break;
  }
  return whole;
}

}  // namespace kite
