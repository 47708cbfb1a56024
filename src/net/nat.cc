#include "src/net/nat.h"

#include "src/base/log.h"

namespace kite {

Nat::Nat(Vcpu* vcpu, NetIf* outside, Ipv4Addr public_ip, SimDuration forward_cost)
    : vcpu_(vcpu), outside_(outside), public_ip_(public_ip), forward_cost_(forward_cost) {
  outside_->SetInputHandler([this](EthernetFrame&& frame) { FromOutside(std::move(frame)); });
  outside_->SetUp(true);
}

void Nat::AddInside(NetIf* netif) {
  inside_.push_back(netif);
  netif->SetInputHandler(
      [this, netif](EthernetFrame&& frame) { FromInside(netif, std::move(frame)); });
  netif->SetUp(true);
}

bool Nat::ExtractOutbound(const Ipv4Packet& packet, uint8_t* proto, uint16_t* id) {
  if (const UdpDatagram* udp = std::get_if<UdpDatagram>(&packet.l4)) {
    *proto = kIpProtoUdp;
    *id = udp->src_port;
    return true;
  }
  if (const TcpSegment* tcp = std::get_if<TcpSegment>(&packet.l4)) {
    *proto = kIpProtoTcp;
    *id = tcp->src_port;
    return true;
  }
  if (const IcmpMessage* icmp = std::get_if<IcmpMessage>(&packet.l4)) {
    if (icmp->is_echo_request) {
      *proto = kIpProtoIcmp;
      *id = icmp->ident;
      return true;
    }
  }
  return false;
}

bool Nat::ExtractInbound(const Ipv4Packet& packet, uint8_t* proto, uint16_t* id) {
  if (const UdpDatagram* udp = std::get_if<UdpDatagram>(&packet.l4)) {
    *proto = kIpProtoUdp;
    *id = udp->dst_port;
    return true;
  }
  if (const TcpSegment* tcp = std::get_if<TcpSegment>(&packet.l4)) {
    *proto = kIpProtoTcp;
    *id = tcp->dst_port;
    return true;
  }
  if (const IcmpMessage* icmp = std::get_if<IcmpMessage>(&packet.l4)) {
    if (!icmp->is_echo_request) {
      *proto = kIpProtoIcmp;
      *id = icmp->ident;
      return true;
    }
  }
  return false;
}

void Nat::RewriteSource(Ipv4Packet* packet, Ipv4Addr ip, uint16_t id) {
  packet->src = ip;
  if (UdpDatagram* udp = std::get_if<UdpDatagram>(&packet->l4)) {
    udp->src_port = id;
  } else if (TcpSegment* tcp = std::get_if<TcpSegment>(&packet->l4)) {
    tcp->src_port = id;
  } else if (IcmpMessage* icmp = std::get_if<IcmpMessage>(&packet->l4)) {
    icmp->ident = id;
  }
}

void Nat::RewriteDestination(Ipv4Packet* packet, Ipv4Addr ip, uint16_t id) {
  packet->dst = ip;
  if (UdpDatagram* udp = std::get_if<UdpDatagram>(&packet->l4)) {
    udp->dst_port = id;
  } else if (TcpSegment* tcp = std::get_if<TcpSegment>(&packet->l4)) {
    tcp->dst_port = id;
  } else if (IcmpMessage* icmp = std::get_if<IcmpMessage>(&packet->l4)) {
    icmp->ident = id;
  }
}

Nat::Flow* Nat::FlowFor(const FlowKey& key, NetIf* ingress, MacAddr inside_mac) {
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    return &it->second;
  }
  Flow flow;
  flow.key = key;
  flow.public_id = next_public_id_++;
  flow.inside_if = ingress;
  flow.inside_mac = inside_mac;
  auto [inserted, ok] = by_key_.emplace(key, flow);
  by_public_[static_cast<uint32_t>(key.proto) << 16 | flow.public_id] = key;
  return &inserted->second;
}

void Nat::FromInside(NetIf* ingress, EthernetFrame&& frame) {
  if (vcpu_ != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("net/nat"));
    vcpu_->Charge(forward_cost_);
  }
  // Answer ARP queries from inside hosts for any outside address: the NAT
  // is their gateway.
  if (const ArpPacket* arp = frame.arp()) {
    if (arp->is_request) {
      ArpPacket reply;
      reply.is_request = false;
      reply.sender_mac = ingress->mac();
      reply.sender_ip = arp->target_ip;
      reply.target_mac = arp->sender_mac;
      reply.target_ip = arp->sender_ip;
      EthernetFrame out;
      out.dst = arp->sender_mac;
      out.src = ingress->mac();
      out.ethertype = kEtherTypeArp;
      out.payload = reply;
      ingress->Output(std::move(out));
    }
    return;
  }
  Ipv4Packet* ip = frame.ip();
  if (ip == nullptr) {
    return;
  }
  uint8_t proto;
  uint16_t id;
  if (!ExtractOutbound(*ip, &proto, &id)) {
    ++dropped_unmatched_;
    return;
  }
  Flow* flow = FlowFor(FlowKey{proto, ip->src.value, id}, ingress, frame.src);
  Ipv4Packet rewritten = std::move(*ip);
  RewriteSource(&rewritten, public_ip_, flow->public_id);
  ++translated_out_;

  EthernetFrame out;
  out.src = outside_->mac();
  auto arp_it = outside_arp_.find(rewritten.dst);
  out.dst = arp_it != outside_arp_.end() ? arp_it->second : MacAddr::Broadcast();
  out.ethertype = kEtherTypeIpv4;
  out.payload = std::move(rewritten);
  outside_->Output(std::move(out));
}

void Nat::FromOutside(EthernetFrame&& frame) {
  if (vcpu_ != nullptr) {
    CpuScope cpu_scope(KITE_CPU_CATEGORY("net/nat"));
    vcpu_->Charge(forward_cost_);
  }
  if (const ArpPacket* arp = frame.arp()) {
    outside_arp_[arp->sender_ip] = arp->sender_mac;
    if (arp->is_request && arp->target_ip == public_ip_) {
      ArpPacket reply;
      reply.is_request = false;
      reply.sender_mac = outside_->mac();
      reply.sender_ip = public_ip_;
      reply.target_mac = arp->sender_mac;
      reply.target_ip = arp->sender_ip;
      EthernetFrame out;
      out.dst = arp->sender_mac;
      out.src = outside_->mac();
      out.ethertype = kEtherTypeArp;
      out.payload = reply;
      outside_->Output(std::move(out));
    }
    return;
  }
  Ipv4Packet* ip = frame.ip();
  if (ip == nullptr || ip->dst != public_ip_) {
    return;
  }
  outside_arp_[ip->src] = frame.src;  // Opportunistic learning.
  uint8_t proto;
  uint16_t id;
  if (!ExtractInbound(*ip, &proto, &id)) {
    ++dropped_unmatched_;
    return;
  }
  auto pub_it = by_public_.find(static_cast<uint32_t>(proto) << 16 | id);
  if (pub_it == by_public_.end()) {
    ++dropped_unmatched_;
    return;
  }
  Flow& flow = by_key_.at(pub_it->second);
  Ipv4Packet rewritten = std::move(*ip);
  RewriteDestination(&rewritten, Ipv4Addr{flow.key.inside_ip}, flow.key.inside_id);
  ++translated_in_;

  EthernetFrame out;
  out.src = flow.inside_if->mac();
  out.dst = flow.inside_mac;
  out.ethertype = kEtherTypeIpv4;
  out.payload = std::move(rewritten);
  flow.inside_if->Output(std::move(out));
}

}  // namespace kite
