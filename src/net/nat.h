// Network address translation (NAPT) — the alternative driver-domain
// organization the paper names alongside bridging (§3.1: "to link netbacks
// to a physical NIC, techniques such as bridging, routing, and network
// address translation (NAT) are used"; NetBSD's NAT "must be ported and
// adapted").
//
// The NAT box owns the outside (physical) interface and any number of
// inside interfaces (VIFs). Outbound UDP/TCP flows and ICMP echo streams are
// rewritten to the public IP with an allocated port/ident; inbound traffic
// is matched against the translation table and rewritten back.
#ifndef SRC_NET_NAT_H_
#define SRC_NET_NAT_H_

#include <map>
#include <vector>

#include "src/net/netif.h"
#include "src/sim/cpu.h"

namespace kite {

class Nat {
 public:
  // forward_cost is charged per translated packet to the driver domain's
  // vCPU (NAT costs more than bridging: header rewrite + table lookup).
  Nat(Vcpu* vcpu, NetIf* outside, Ipv4Addr public_ip,
      SimDuration forward_cost = Nanos(250));

  // Adds an inside interface; hosts behind it use private addresses.
  void AddInside(NetIf* netif);

  Ipv4Addr public_ip() const { return public_ip_; }
  size_t flow_count() const { return by_key_.size(); }
  uint64_t translated_out() const { return translated_out_; }
  uint64_t translated_in() const { return translated_in_; }
  uint64_t dropped_unmatched() const { return dropped_unmatched_; }

 private:
  struct FlowKey {
    uint8_t proto;
    uint32_t inside_ip;
    uint16_t inside_id;  // Port (UDP/TCP) or ICMP ident.
    auto operator<=>(const FlowKey&) const = default;
  };
  struct Flow {
    FlowKey key;
    uint16_t public_id;
    NetIf* inside_if;
    MacAddr inside_mac;
  };

  void FromInside(NetIf* ingress, EthernetFrame&& frame);
  void FromOutside(EthernetFrame&& frame);
  Flow* FlowFor(const FlowKey& key, NetIf* ingress, MacAddr inside_mac);
  // Extracts (proto, id) from the L4 of a packet; false if untranslatable.
  static bool ExtractOutbound(const Ipv4Packet& packet, uint8_t* proto, uint16_t* id);
  static bool ExtractInbound(const Ipv4Packet& packet, uint8_t* proto, uint16_t* id);
  static void RewriteSource(Ipv4Packet* packet, Ipv4Addr ip, uint16_t id);
  static void RewriteDestination(Ipv4Packet* packet, Ipv4Addr ip, uint16_t id);

  Vcpu* vcpu_;
  NetIf* outside_;
  Ipv4Addr public_ip_;
  SimDuration forward_cost_;
  std::vector<NetIf*> inside_;
  std::map<FlowKey, Flow> by_key_;
  std::map<uint32_t, FlowKey> by_public_;  // (proto << 16 | public_id) → key.
  uint16_t next_public_id_ = 20000;
  // Outside-peer MAC learning (the NAT answers ARP for its public IP).
  std::map<Ipv4Addr, MacAddr> outside_arp_;
  uint64_t translated_out_ = 0;
  uint64_t translated_in_ = 0;
  uint64_t dropped_unmatched_ = 0;
};

}  // namespace kite

#endif  // SRC_NET_NAT_H_
