// Packet and flow types shared by the guest mini-stack, the split network
// drivers and the Dom0 software switches.

#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nephele {

using Ipv4Addr = std::uint32_t;
using MacAddr = std::uint64_t;  // low 48 bits

constexpr Ipv4Addr MakeIpv4(unsigned a, unsigned b, unsigned c, unsigned d) {
  return (static_cast<Ipv4Addr>(a) << 24) | (b << 16) | (c << 8) | d;
}

std::string Ipv4ToString(Ipv4Addr addr);

enum class IpProto : std::uint8_t {
  kUdp = 17,
  kTcp = 6,
};

// TCP segment kinds, at the granularity our flow model needs.
enum class TcpFlag : std::uint8_t {
  kNone = 0,
  kSyn = 1,
  kSynAck = 2,
  kFin = 4,
};

struct Packet {
  IpProto proto = IpProto::kUdp;
  MacAddr src_mac = 0;
  MacAddr dst_mac = 0;
  Ipv4Addr src_ip = 0;
  Ipv4Addr dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  TcpFlag tcp_flag = TcpFlag::kNone;
  std::vector<std::uint8_t> payload;

  std::size_t wire_size() const { return 54 + payload.size(); }
};

// The Linux bonding driver's layer3+4 transmit hash
// (Documentation/networking/bonding.txt): ((src_port ^ dst_port) ^
// ((src_ip ^ dst_ip) & 0xffff...)) — we reproduce the spirit: a symmetric
// hash over the 5-tuple so a flow always picks the same slave.
std::uint32_t Layer34Hash(const Packet& p);

// Exact-match flow key used by connection tables.
struct FlowKey {
  Ipv4Addr src_ip = 0;
  Ipv4Addr dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  IpProto proto = IpProto::kUdp;

  friend bool operator==(const FlowKey& a, const FlowKey& b) = default;
};

// The one hash of every flow table (guest stack, OVS group): the 5-tuple
// packed into two words, mixed with the MurmurHash3 fmix64 finalizer. No
// table depends on its iteration order.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    std::uint64_t h = (static_cast<std::uint64_t>(k.src_ip) << 32) | k.dst_ip;
    h ^= ((static_cast<std::uint64_t>(k.src_port) << 24) |
          (static_cast<std::uint64_t>(k.dst_port) << 8) | static_cast<std::uint64_t>(k.proto)) *
         0x9e3779b97f4a7c15ULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

FlowKey KeyOf(const Packet& p);
// The reverse direction of a flow.
FlowKey Reversed(const FlowKey& k);

}  // namespace nephele

#endif  // SRC_NET_PACKET_H_
