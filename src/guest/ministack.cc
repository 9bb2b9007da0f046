#include "src/guest/ministack.h"

namespace nephele {

Status MiniStack::UdpBind(std::uint16_t port) {
  if (!udp_ports_.insert(port).second) {
    return ErrAlreadyExists("port bound");
  }
  return Status::Ok();
}

Status MiniStack::UdpSend(std::uint16_t src_port, Ipv4Addr dst_ip, std::uint16_t dst_port,
                          std::vector<std::uint8_t> payload) {
  if (frontend_ == nullptr) {
    return ErrFailedPrecondition("no vif");
  }
  Packet p;
  p.proto = IpProto::kUdp;
  p.src_mac = frontend_->mac();
  p.src_ip = frontend_->ip();
  p.src_port = src_port;
  p.dst_ip = dst_ip;
  p.dst_port = dst_port;
  p.payload = std::move(payload);
  return frontend_->Send(p);
}

Status MiniStack::TcpListen(std::uint16_t port) {
  if (!tcp_listen_ports_.insert(port).second) {
    return ErrAlreadyExists("port listening");
  }
  return Status::Ok();
}

Status MiniStack::TcpReply(const Packet& request, std::vector<std::uint8_t> payload) {
  if (frontend_ == nullptr) {
    return ErrFailedPrecondition("no vif");
  }
  Packet p;
  p.proto = IpProto::kTcp;
  p.src_mac = frontend_->mac();
  p.dst_mac = request.src_mac;
  p.src_ip = request.dst_ip;
  p.src_port = request.dst_port;
  p.dst_ip = request.src_ip;
  p.dst_port = request.src_port;
  p.payload = std::move(payload);
  auto it = flows_.find(KeyOf(request));
  if (it != flows_.end()) {
    ++it->second.requests;
  }
  return frontend_->Send(p);
}

void MiniStack::OnFrameReceived(const Packet& packet) {
  if (packet.proto == IpProto::kUdp) {
    if (!udp_ports_.contains(packet.dst_port)) {
      ++dropped_;
      return;
    }
    if (deliver_) {
      deliver_(packet);
    }
    return;
  }
  // TCP.
  FlowKey key = KeyOf(packet);
  if (packet.tcp_flag == TcpFlag::kSyn) {
    if (!tcp_listen_ports_.contains(packet.dst_port)) {
      ++dropped_;
      return;
    }
    TcpFlow flow;
    flow.key = key;
    flow.established = true;
    flows_[key] = flow;
    // SYN-ACK handshake reply.
    Packet synack;
    synack.proto = IpProto::kTcp;
    synack.tcp_flag = TcpFlag::kSynAck;
    synack.src_mac = frontend_ != nullptr ? frontend_->mac() : 0;
    synack.dst_mac = packet.src_mac;
    synack.src_ip = packet.dst_ip;
    synack.src_port = packet.dst_port;
    synack.dst_ip = packet.src_ip;
    synack.dst_port = packet.src_port;
    if (frontend_ != nullptr) {
      (void)frontend_->Send(synack);
    }
    return;
  }
  if (packet.tcp_flag == TcpFlag::kFin) {
    flows_.erase(key);
    return;
  }
  auto it = flows_.find(key);
  if (it == flows_.end() || !it->second.established) {
    // Data on unknown flow: accept implicitly when the port is listening
    // (generators may skip the handshake for throughput runs).
    if (!tcp_listen_ports_.contains(packet.dst_port)) {
      ++dropped_;
      return;
    }
    TcpFlow flow;
    flow.key = key;
    flow.established = true;
    flows_[key] = flow;
  }
  if (deliver_) {
    deliver_(packet);
  }
}

void MiniStack::CopyStateFrom(const MiniStack& parent) {
  udp_ports_ = parent.udp_ports_;
  tcp_listen_ports_ = parent.tcp_listen_ports_;
  flows_ = parent.flows_;
}

std::size_t MiniStack::established_flows() const {
  std::size_t n = 0;
  for (const auto& [key, flow] : flows_) {
    if (flow.established) {
      ++n;
    }
  }
  return n;
}

}  // namespace nephele
