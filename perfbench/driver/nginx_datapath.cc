// nginx_datapath: an NGINX master forks 4 clone workers behind the Dom0 bond
// (set-up); then 400 connections per worker run a closed loop — each
// connection sends its next GET when the previous reply arrives — over a
// simulated window. One op runs from a GET to its reply. The seed draws the
// connections' source ports (and with them the bond's hash spread over the
// workers) and their start offsets. No clone happens after set-up.
//
// The client retransmits a GET left unanswered for an RTO, as a TCP sender
// would: when the connections' start burst overflows a guest's 256-slot RX
// ring the netback drops packets, and the simulated guest stack never
// retransmits. Retransmitted ops keep their original send time, so a drop
// costs its op the RTO; net.retransmits counts them.

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "driver/workloads.h"
#include "src/apps/nginx_app.h"
#include "src/guest/guest_manager.h"
#include "src/hypervisor/invariants.h"
#include "src/net/switch.h"
#include "src/sim/rng.h"

namespace perfbench {

using namespace nephele;

namespace {

constexpr unsigned kWorkers = 4;
constexpr int kConnectionsPerWorker = 400;
constexpr long kWindowMs = 1500;  // simulated closed-loop window
constexpr std::uint16_t kHttpPort = 80;
constexpr SimDuration kRto = SimDuration::Millis(200);    // TCP's minimum RTO
constexpr SimDuration kSweep = SimDuration::Millis(50);   // retransmit timer tick
constexpr unsigned kMaxRetransmits = 5;                   // then the op fails

struct Connection {
  bool outstanding = false;
  SimTime sent;     // first transmission: the op's start
  SimTime last_tx;  // latest transmission: the RTO's start
  unsigned retransmits = 0;
};

}  // namespace

RoundResult RunNginxDatapath(const RoundParams& params, Tracer& tracer) {
  RoundResult round;
  Rng rng(StreamSeed(params.seed, 3));

  // --- Set-up: the master boots and forks its workers. ---
  const std::int64_t setup_start = HostNowNs();
  SystemConfig scfg;
  scfg.hypervisor.pool_frames = 64 * 1024;
  NepheleSystem system(scfg);
  tracer.Bind(&system.loop());
  GuestManager guests(system);
  Bond bond;
  system.toolstack().SetDefaultSwitch(&bond);
  const MetricsRegistry& m = system.metrics();
  const std::int64_t baseline_frames = m.GaugeValue("hypervisor/frames/allocated");
  DomainConfig cfg;
  cfg.name = "nginx";
  cfg.memory_mb = 16;
  cfg.max_clones = kWorkers;
  NginxConfig ncfg;
  ncfg.workers = kWorkers;
  Result<DomId> master = [&] {
    auto launch = tracer.Begin("toolstack.launch");
    auto dom = guests.Launch(cfg, std::make_unique<NginxApp>(ncfg));
    Drain(round, tracer, "sim.settle_setup", [&] { return system.loop().Run(); });
    return dom;
  }();
  round.Check(master.ok() && guests.NumGuests() == kWorkers,
              "master boot or worker fork failed");
  if (!master.ok()) {
    return round;
  }
  round.setup_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;

  const Ipv4Addr server_ip = system.toolstack().FindDevices(*master)->net->ip();
  const Ipv4Addr client_ip = MakeIpv4(10, 8, 255, 1);

  // Seeded connection 5-tuples: distinct source ports.
  const int conns = kConnectionsPerWorker * static_cast<int>(kWorkers);
  std::array<std::int32_t, 65536> conn_of_port;
  conn_of_port.fill(-1);
  std::vector<std::uint16_t> ports;
  while (ports.size() < static_cast<std::size_t>(conns)) {
    const auto port = static_cast<std::uint16_t>(10000 + rng.NextBelow(50000));
    if (conn_of_port[port] < 0) {
      conn_of_port[port] = static_cast<std::int32_t>(ports.size());
      ports.push_back(port);
    }
  }
  std::vector<Connection> state(ports.size());

  std::uint64_t sent = 0, matched = 0, mismatched = 0, packets = 0, retransmits = 0,
                abandoned = 0, open = 0;
  const SimTime phase_start = system.Now();
  const SimTime deadline = phase_start + SimDuration::Millis(kWindowMs);
  SimTime last_reply = phase_start;
  auto transmit = [&](std::int32_t c) {
    Packet req;
    req.proto = IpProto::kTcp;
    req.src_ip = client_ip;
    req.src_port = ports[static_cast<std::size_t>(c)];
    req.dst_ip = server_ip;
    req.dst_port = kHttpPort;
    static const char kGet[] = "GET /";
    req.payload.assign(kGet, kGet + sizeof(kGet) - 1);
    state[static_cast<std::size_t>(c)].last_tx = system.Now();
    ++packets;
    auto scope = tracer.Begin("net.inject");
    bond.InjectFromUplink(req);
  };
  auto send_get = [&](std::int32_t c) {
    state[static_cast<std::size_t>(c)] = {true, system.Now(), system.Now(), 0};
    ++sent;
    ++open;
    tracer.SetOp(sent);
    transmit(c);
  };
  // The client's retransmit timer: one tick per kSweep until every GET is
  // answered or abandoned.
  std::function<void()> sweep = [&] {
    for (std::size_t c = 0; c < state.size(); ++c) {
      Connection& conn = state[c];
      if (!conn.outstanding || system.Now() - conn.last_tx < kRto) {
        continue;
      }
      if (conn.retransmits == kMaxRetransmits) {
        conn.outstanding = false;
        ++abandoned;
        --open;
        continue;
      }
      ++conn.retransmits;
      ++retransmits;
      transmit(static_cast<std::int32_t>(c));
    }
    if (system.Now() < deadline || open > 0) {
      system.loop().Post(kSweep, sweep);
    }
  };
  bond.set_uplink_sink([&](const Packet& reply) {
    ++packets;
    const std::int32_t c = conn_of_port[reply.dst_port];
    const bool ok = reply.proto == IpProto::kTcp && reply.src_port == kHttpPort &&
                    reply.src_ip == server_ip && reply.dst_ip == client_ip && c >= 0 &&
                    state[static_cast<std::size_t>(c)].outstanding;
    if (!ok) {
      ++mismatched;
      return;
    }
    Connection& conn = state[static_cast<std::size_t>(c)];
    conn.outstanding = false;
    --open;
    ++matched;
    last_reply = system.Now();
    round.op_sim_ns.push_back(static_cast<double>((system.Now() - conn.sent).ns()));
    if (system.Now() < deadline) {
      send_get(c);  // closed loop: the next GET on the same connection
    }
  });

  // --- Measured phase. ---
  RegistryDelta delta;
  delta.before = RegistrySnapshot::Take(m);
  const std::int64_t host_start = HostNowNs();
  for (int c = 0; c < conns; ++c) {
    system.loop().Post(SimDuration::Micros(static_cast<double>(rng.NextBelow(500))),
                       [&send_get, c] { send_get(c); });
  }
  system.loop().Post(kSweep, sweep);
  Drain(round, tracer, "sim.drain", [&] { return system.loop().Run(); });
  round.measure_host_s = static_cast<double>(HostNowNs() - host_start) / 1e9;
  round.measure_sim_s = (last_reply - phase_start).ToSeconds();
  delta.after = RegistrySnapshot::Take(m);
  tracer.SetOp(0);

  // --- Output checks: every reply matches an open connection's 5-tuple. ---
  std::size_t still_open = 0;
  for (const Connection& c : state) {
    still_open += c.outstanding ? 1 : 0;
  }
  round.Check(mismatched == 0,
              std::to_string(mismatched) + " replies matched no open connection's 5-tuple");
  round.Check(matched + abandoned == sent && still_open == 0, "a GET was never resolved");
  round.Check(CheckHypervisorInvariants(system.hypervisor()).empty(), "hypervisor invariants");
  round.attempted = sent;
  round.failed = abandoned;

  FillCommonSim(round);
  FillPerOp(round, delta, matched);
  FillMemory(round, m.GaugeValue("hypervisor/frames/allocated"), baseline_frames,
             m.GaugeValue("hypervisor/frames/saved_by_sharing"),
             m.GaugeValue("xenstore/entries"), guests.NumGuests());
  round.sim["net.retransmits"] = {static_cast<double>(retransmits), sent};
  round.sim["net.packets_per_op"] = {
      matched > 0 ? static_cast<double>(packets) / static_cast<double>(matched) : 0, packets};

  // --- Teardown: workers, then the master; frames return. ---
  {
    auto scope = tracer.Begin("toolstack.teardown");
    const std::vector<DomId> children = system.hypervisor().FindDomain(*master)->children;
    for (DomId child : children) {
      (void)guests.Destroy(child);
    }
    (void)guests.Destroy(*master);
    Drain(round, tracer, "sim.settle_teardown", [&] { return system.loop().Run(); });
  }
  round.Check(m.GaugeValue("hypervisor/frames/allocated") == baseline_frames,
              "frames not returned after teardown");

  if (tracer.enabled()) {
    FillSimLayer(round, tracer);
    PutHostP50(round, tracer, "net.inject_host_ns_p50", "net.inject", 1);
    PutHostP50(round, tracer, "toolstack.launch_host_us_p50", "toolstack.launch", 1e3);
  }
  round.digest = m.ExportJson();
  tracer.Bind(nullptr);
  return round;
}

}  // namespace perfbench
