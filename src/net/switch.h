// Dom0 software switching. A HostSwitch multiplexes one physical uplink
// across many vif backend ports:
//   * Bridge      — classic learning bridge (distinct MAC per guest).
//   * Bond        — Linux bonding, balance-xor + layer3+4 policy: all slaves
//                   share one MAC/IP; a flow hash picks the slave. This is
//                   Nephele's stateless option for clone networking (Sec. 5.2.1).
//   * OvsGroup    — Open vSwitch select-group: like bond, but the selector is
//                   pluggable for richer, stateful policies.

#ifndef SRC_NET_SWITCH_H_
#define SRC_NET_SWITCH_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/net/packet.h"
#include "src/sim/event_loop.h"

namespace nephele {

// One attachable endpoint (a vif backend). The switch pushes guest-bound
// packets into it.
class SwitchPort {
 public:
  virtual ~SwitchPort() = default;
  virtual void DeliverToGuest(const Packet& packet) = 0;
  virtual MacAddr mac() const = 0;
  virtual Ipv4Addr ip() const = 0;
  virtual std::string port_name() const = 0;
};

// Packets leaving towards the external network (and the host itself) land in
// this sink; benchmark load generators register here.
using UplinkSink = std::function<void(const Packet&)>;

class HostSwitch {
 public:
  virtual ~HostSwitch() = default;

  virtual Status Attach(SwitchPort* port) = 0;
  virtual Status Detach(SwitchPort* port) = 0;
  virtual std::size_t num_ports() const = 0;

  // Guest egress.
  virtual void TransmitFromGuest(SwitchPort* from, const Packet& packet) = 0;
  // Host/external ingress.
  virtual void InjectFromUplink(const Packet& packet) = 0;

  void set_uplink_sink(UplinkSink sink) { uplink_ = std::move(sink); }

 protected:
  void ToUplink(const Packet& packet) {
    if (uplink_) {
      uplink_(packet);
    }
  }

 private:
  UplinkSink uplink_;
};

// Learning bridge keyed by destination MAC; floods unknown destinations to
// the uplink.
class Bridge : public HostSwitch {
 public:
  Status Attach(SwitchPort* port) override;
  Status Detach(SwitchPort* port) override;
  std::size_t num_ports() const override { return ports_.size(); }
  void TransmitFromGuest(SwitchPort* from, const Packet& packet) override;
  void InjectFromUplink(const Packet& packet) override;

 private:
  std::vector<SwitchPort*> ports_;
  std::map<MacAddr, SwitchPort*> fdb_;
};

// Linux bond, balance-xor mode with xmit_hash_policy=layer3+4. Slaves carry
// identical MAC/IP; the layer3+4 hash of an incoming packet selects the
// slave deterministically, so one 5-tuple always reaches the same clone.
class Bond : public HostSwitch {
 public:
  Status Attach(SwitchPort* port) override;
  Status Detach(SwitchPort* port) override;
  std::size_t num_ports() const override { return slaves_.size(); }
  void TransmitFromGuest(SwitchPort* from, const Packet& packet) override;
  void InjectFromUplink(const Packet& packet) override;

  // The slave index the current hash policy picks for `packet`.
  std::size_t SelectIndex(const Packet& packet) const;
  SwitchPort* slave(std::size_t i) const { return slaves_[i]; }

 private:
  std::vector<SwitchPort*> slaves_;
};

// OVS select group: hash-based by default, but the selection function can be
// replaced to implement stateful policies (Sec. 5.2.1 second solution).
class OvsGroup : public HostSwitch {
 public:
  using Selector = std::function<std::size_t(const Packet&, std::size_t num_buckets)>;

  OvsGroup();

  Status Attach(SwitchPort* port) override;
  Status Detach(SwitchPort* port) override;
  std::size_t num_ports() const override { return buckets_.size(); }
  void TransmitFromGuest(SwitchPort* from, const Packet& packet) override;
  void InjectFromUplink(const Packet& packet) override;

  void set_selector(Selector selector) { selector_ = std::move(selector); }

  // Installs a stateful least-loaded selector (the Sec. 5.2.1 motivation for
  // OVS groups: "it can be easily extended for more complex selection
  // criteria that can leverage the state information it keeps"): a new flow
  // goes to the bucket currently serving the fewest flows; known flows stay
  // put.
  void UseLeastLoadedSelector();

  // Per-flow statistics OVS keeps and custom selectors can use.
  std::size_t flows_seen() const { return flow_counts_.size(); }
  // Active-flow count of one bucket under the least-loaded selector.
  std::size_t BucketLoad(std::size_t bucket) const;

 private:
  std::vector<SwitchPort*> buckets_;
  Selector selector_;
  std::unordered_map<FlowKey, std::uint64_t, FlowKeyHash> flow_counts_;
  // Least-loaded selector state: flow -> bucket assignment and per-bucket
  // active-flow counts.
  std::unordered_map<FlowKey, std::size_t, FlowKeyHash> flow_assignment_;
  std::vector<std::size_t> bucket_load_;
};

// Searches for a source port such that the bond's layer3+4 hash maps the
// tuple (src_ip:port -> dst_ip:dst_port) to slave `want_index` out of
// `num_slaves`. Mirrors the paper's Fig. 4 methodology ("assign a unique
// port number to each UDP server ... so that there were no two different
// <address, port> tuples mapping to the same slave interface").
Result<std::uint16_t> FindPortForSlave(Ipv4Addr src_ip, Ipv4Addr dst_ip, std::uint16_t dst_port,
                                       IpProto proto, std::size_t num_slaves,
                                       std::size_t want_index, std::uint16_t start_port = 10000);

}  // namespace nephele

#endif  // SRC_NET_SWITCH_H_
