#include "src/net/packet.h"

namespace nephele {

std::string Ipv4ToString(Ipv4Addr addr) {
  return std::to_string((addr >> 24) & 0xff) + "." + std::to_string((addr >> 16) & 0xff) + "." +
         std::to_string((addr >> 8) & 0xff) + "." + std::to_string(addr & 0xff);
}

std::uint32_t Layer34Hash(const Packet& p) {
  std::uint32_t h = p.src_ip ^ p.dst_ip;
  h ^= static_cast<std::uint32_t>(p.src_port) ^ (static_cast<std::uint32_t>(p.dst_port) << 16);
  // Final avalanche so consecutive ports spread (fmix32 from MurmurHash3).
  h ^= h >> 16;
  h *= 0x85ebca6b;
  h ^= h >> 13;
  h *= 0xc2b2ae35;
  h ^= h >> 16;
  return h;
}

FlowKey KeyOf(const Packet& p) {
  return FlowKey{p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto};
}

FlowKey Reversed(const FlowKey& k) {
  return FlowKey{k.dst_ip, k.src_ip, k.dst_port, k.src_port, k.proto};
}

}  // namespace nephele
