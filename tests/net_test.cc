#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/ecmp.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/switch.h"
#include "sim/simulator.h"

namespace esim::net {
namespace {

using sim::SimTime;
using sim::Simulator;

/// Test sink that records arrivals with timestamps.
class Sink : public PacketHandler {
 public:
  explicit Sink(Simulator& sim) : sim_{sim} {}
  void handle_packet(Packet pkt) override {
    arrivals.emplace_back(sim_.now(), std::move(pkt));
  }
  std::vector<std::pair<SimTime, Packet>> arrivals;

 private:
  Simulator& sim_;
};

Packet make_packet(std::uint64_t id, std::uint32_t payload, HostId src = 0,
                   HostId dst = 1) {
  Packet p;
  p.id = id;
  p.payload = payload;
  p.flow.src_host = src;
  p.flow.dst_host = dst;
  p.flow.src_port = 1000;
  p.flow.dst_port = 80;
  return p;
}

TEST(PacketTest, SizeIncludesHeader) {
  EXPECT_EQ(make_packet(1, 0).size_bytes(), kHeaderBytes);
  EXPECT_EQ(make_packet(1, 1460).size_bytes(), kHeaderBytes + 1460u);
}

TEST(PacketTest, FlagsCompose) {
  Packet p = make_packet(1, 0);
  p.flags = TcpFlag::Syn | TcpFlag::Ack;
  EXPECT_TRUE(p.has(TcpFlag::Syn));
  EXPECT_TRUE(p.has(TcpFlag::Ack));
  EXPECT_FALSE(p.has(TcpFlag::Fin));
}

TEST(PacketTest, FlowKeyReverse) {
  FlowKey k{1, 2, 10, 80};
  const FlowKey r = k.reversed();
  EXPECT_EQ(r.src_host, 2u);
  EXPECT_EQ(r.dst_host, 1u);
  EXPECT_EQ(r.src_port, 80);
  EXPECT_EQ(r.dst_port, 10);
  EXPECT_EQ(r.reversed(), k);
}

TEST(PacketTest, ToStringMentionsFlags) {
  Packet p = make_packet(7, 100);
  p.flags = TcpFlag::Syn;
  const auto s = p.to_string();
  EXPECT_NE(s.find("S"), std::string::npos);
  EXPECT_NE(s.find("len=100"), std::string::npos);
}

TEST(LinkTest, DeliversWithSerializationAndPropagation) {
  Simulator sim;
  Sink sink{sim};
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;  // 1 Gbps: 1500B = 12us
  cfg.propagation = SimTime::from_us(5);
  auto* link = sim.add_component<Link>("l", cfg, &sink);

  sim.schedule_at(SimTime::from_us(1), [&] { link->send(make_packet(1, 1442)); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 1500 bytes at 1 Gbps = 12 us tx + 5 us prop, sent at 1 us.
  EXPECT_EQ(sink.arrivals[0].first, SimTime::from_us(18));
  EXPECT_EQ(link->counter().delivered, 1u);
}

TEST(LinkTest, SerializesBackToBack) {
  Simulator sim;
  Sink sink{sim};
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.propagation = SimTime::from_us(1);
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  sim.schedule_at(SimTime::from_us(0), [&] {
    link->send(make_packet(1, 1442));  // 1500B -> 12us
    link->send(make_packet(2, 1442));
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, SimTime::from_us(13));
  EXPECT_EQ(sink.arrivals[1].first, SimTime::from_us(25));  // queued behind
}

TEST(LinkTest, DropsWhenQueueFull) {
  Simulator sim;
  Sink sink{sim};
  Link::Config cfg;
  cfg.bandwidth_bps = 1e6;               // slow, so queue builds
  cfg.queue_capacity_bytes = 3000;       // fits 2 full packets
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  int drops = 0;
  link->on_drop = [&](const Packet&) { ++drops; };
  sim.schedule_at(SimTime::from_us(1), [&] {
    for (int i = 0; i < 5; ++i) link->send(make_packet(i, 1442));
  });
  sim.run();
  // First packet starts serializing immediately (leaves the queue); two
  // more fit in 3000 bytes; the rest drop.
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(link->counter().dropped, 2u);
  EXPECT_EQ(link->counter().sent, 5u);
}

TEST(LinkTest, OnTransmitObserverSeesDepartures) {
  Simulator sim;
  Sink sink{sim};
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.propagation = SimTime::from_us(3);
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  std::vector<std::pair<std::uint64_t, SimTime>> seen;
  link->on_transmit = [&](const Packet& p, SimTime arrive_at) {
    seen.emplace_back(p.id, arrive_at);
  };
  sim.schedule_at(SimTime{}, [&] { link->send(make_packet(9, 1442)); });
  sim.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 9u);
  EXPECT_EQ(seen[0].second, SimTime::from_us(15));
}

// --- the one-event-per-hop link model ---------------------------------------

/// 1 Gbps, so a 1500-byte packet (1442 payload) serializes in exactly 12 us.
Link::Config gig_config(SimTime propagation, std::uint32_t capacity = 150'000) {
  Link::Config cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.propagation = propagation;
  cfg.queue_capacity_bytes = capacity;
  return cfg;
}

TEST(LinkModel, IdleBurstDeliversAtStartPlusTxPlusPropagationOneEventEach) {
  Simulator sim;
  Sink sink{sim};
  auto* link =
      sim.add_component<Link>("l", gig_config(SimTime::from_us(5)), &sink);
  sim.schedule_at(SimTime::from_us(1), [&] {
    for (std::uint64_t id = 1; id <= 4; ++id) {
      link->send(make_packet(id, 1442));
    }
  });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    // Packet k starts at 1 + 12k us and arrives 12 + 5 us later.
    EXPECT_EQ(sink.arrivals[k].first,
              SimTime::from_us(1 + 12 * static_cast<std::int64_t>(k) + 17));
    EXPECT_EQ(sink.arrivals[k].second.id, k + 1);
  }
  // The sender's event plus exactly one delivery per packet.
  EXPECT_EQ(sim.events_executed(), 1u + 4u);
  EXPECT_EQ(link->counter().delivered, 4u);
}

/// What became of packet C in send_at_departure_instant().
struct SameInstantOutcome {
  std::optional<SimTime> arrival;
  bool ecn = false;
  std::uint64_t dropped = 0;
};

/// Sends A and B (1500 B each) at t=0 into a link that queues at most one
/// full packet, then sends C at t=12 us — exactly when A departs and B
/// starts — from an event built by `schedule_c`. Returns C's arrival
/// (nullopt if dropped) and ECN bit.
template <typename ScheduleC>
SameInstantOutcome send_at_departure_instant(ScheduleC schedule_c) {
  Simulator sim;
  Sink sink{sim};
  Link::Config cfg = gig_config(SimTime::from_us(1), /*capacity=*/1500);
  cfg.ecn_threshold_bytes = 1;  // any queued byte marks
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  // C's event is scheduled first, so a key-0 C would precede any event the
  // sends below schedule for t=12 us under an insertion-order tie.
  schedule_c(sim, [link] { link->send(make_packet(3, 1442)); });
  sim.schedule_at(SimTime{}, [link] {
    link->send(make_packet(1, 1442));
    link->send(make_packet(2, 1442));
  });
  sim.run();
  SameInstantOutcome out;
  out.dropped = link->counter().dropped;
  for (const auto& [t, p] : sink.arrivals) {
    if (p.id == 3) {
      out.arrival = t;
      out.ecn = p.ecn;
    }
  }
  return out;
}

TEST(LinkModel, SendAtDepartureInstantIsDecidedByTimeNotEventOrder) {
  const SimTime at = SimTime::from_us(12);
  const auto key0 = send_at_departure_instant([at](Simulator& sim, auto fn) {
    sim.schedule_at(at, std::move(fn));
  });
  const auto keyed = send_at_departure_instant([at](Simulator& sim, auto fn) {
    sim.schedule_at_keyed(at, /*key=*/1000, std::move(fn));
  });
  // A's serialization ending at 12 us frees the port first: B has started,
  // so C finds an empty queue — admitted, unmarked, starting at 24 us.
  for (const auto& o : {key0, keyed}) {
    EXPECT_EQ(o.dropped, 0u);
    ASSERT_TRUE(o.arrival.has_value());
    EXPECT_EQ(*o.arrival, SimTime::from_us(24 + 12 + 1));
    EXPECT_FALSE(o.ecn);
  }
}

TEST(LinkModel, AccessorsDeriveFromTheClock) {
  Simulator sim;
  Sink sink{sim};
  auto* link =
      sim.add_component<Link>("l", gig_config(SimTime::from_us(1)), &sink);
  sim.schedule_at(SimTime{}, [&] {
    link->send(make_packet(1, 1442));  // serializes [0, 12) us
    link->send(make_packet(2, 1442));  // serializes [12, 24) us
  });
  struct Probe {
    bool busy;
    std::size_t packets;
    std::uint32_t bytes;
    std::uint64_t delivered;
  };
  auto probe = [&] {
    return Probe{link->busy(), link->queued_packets(), link->queued_bytes(),
                 link->counter().delivered};
  };
  Probe mid{}, at_departure{};
  sim.schedule_at(SimTime::from_us(6), [&] { mid = probe(); });
  sim.schedule_at(SimTime::from_us(12), [&] { at_departure = probe(); });

  sim.run_until(SimTime::from_us(13));
  // Mid-serialization of A: B waits in the queue.
  EXPECT_TRUE(mid.busy);
  EXPECT_EQ(mid.packets, 1u);
  EXPECT_EQ(mid.bytes, 1500u);
  EXPECT_EQ(mid.delivered, 0u);
  // At A's departure instant A has left and B is on the wire.
  EXPECT_TRUE(at_departure.busy);
  EXPECT_EQ(at_departure.packets, 0u);
  EXPECT_EQ(at_departure.bytes, 0u);
  EXPECT_EQ(at_departure.delivered, 1u);

  // A run_until horizon that cuts B's serialization: no event marks it,
  // the clock alone does.
  sim.run_until(SimTime::from_us(20));
  EXPECT_TRUE(link->busy());
  EXPECT_EQ(link->queued_packets(), 0u);
  EXPECT_EQ(link->counter().delivered, 1u);
  // A horizon at exactly B's departure: B has left, though its delivery
  // (at 25 us) is still pending.
  sim.run_until(SimTime::from_us(24));
  EXPECT_FALSE(link->busy());
  EXPECT_EQ(link->queued_bytes(), 0u);
  EXPECT_EQ(link->counter().delivered, 2u);
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(LinkModel, OnTransmitFiresAtAdmissionOncePerAdmittedPacket) {
  Simulator sim;
  Sink sink{sim};
  auto* link = sim.add_component<Link>(
      "l", gig_config(SimTime::from_us(2), /*capacity=*/1500), &sink);
  std::vector<std::uint64_t> transmitted, dropped;
  std::vector<SimTime> seen_at, arrive;
  link->on_transmit = [&](const Packet& p, SimTime arrive_at) {
    transmitted.push_back(p.id);
    seen_at.push_back(sim.now());
    arrive.push_back(arrive_at);
  };
  link->on_drop = [&](const Packet& p) { dropped.push_back(p.id); };
  sim.schedule_at(SimTime::from_us(3), [&] {
    for (std::uint64_t id = 1; id <= 4; ++id) {
      link->send(make_packet(id, 1442));
    }
  });
  sim.run();
  // 1 starts, 2 queues (1500 B fills the queue), 3 and 4 drop.
  EXPECT_EQ(transmitted, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(seen_at, (std::vector<SimTime>(2, SimTime::from_us(3))));
  EXPECT_EQ(arrive, (std::vector<SimTime>{SimTime::from_us(3 + 12 + 2),
                                          SimTime::from_us(3 + 24 + 2)}));
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first, arrive[0]);
  EXPECT_EQ(sink.arrivals[1].first, arrive[1]);
}

TEST(LinkModel, RemoteSchedulerReceivesArrivalAtAdmission) {
  Simulator sim;
  Sink sink{sim};
  const SimTime prop = SimTime::from_us(4);
  auto* link = sim.add_component<Link>("l", gig_config(prop), &sink);
  struct Post {
    SimTime posted_at, arrive_at;
    std::uint64_t key;
  };
  std::vector<Post> posts;
  link->set_remote_scheduler(
      [&](SimTime at, std::uint64_t key, sim::EventFn&&) {
        posts.push_back({sim.now(), at, key});
      });
  constexpr int kBurst = 50;  // a long queue: the last waits 49 tx times
  sim.schedule_at(SimTime::from_us(7), [&] {
    for (int i = 0; i < kBurst; ++i) {
      link->send(make_packet(100 + static_cast<std::uint64_t>(i), 1442));
    }
  });
  sim.run();
  ASSERT_EQ(posts.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) {
    const Post& p = posts[static_cast<std::size_t>(i)];
    EXPECT_EQ(p.posted_at, SimTime::from_us(7));
    EXPECT_GE(p.arrive_at, p.posted_at + prop);
    EXPECT_EQ(p.arrive_at, SimTime::from_us(7 + 12 * (i + 1) + 4));
    EXPECT_EQ(p.key, 100u + static_cast<std::uint64_t>(i));
  }
  // Nothing was scheduled locally: only the sender's event ran.
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_TRUE(sink.arrivals.empty());
}

TEST(LinkTest, TxTimeScalesWithBytes) {
  Simulator sim;
  Sink sink{sim};
  Link::Config cfg;
  cfg.bandwidth_bps = 10e9;
  auto* link = sim.add_component<Link>("l", cfg, &sink);
  EXPECT_EQ(link->tx_time(1250).ns(), 1000);  // 10kb at 10Gbps = 1us
  EXPECT_EQ(link->tx_time(125).ns(), 100);
}

TEST(LinkTest, RejectsBadConfig) {
  Simulator sim;
  Sink sink{sim};
  Link::Config cfg;
  cfg.bandwidth_bps = 0;
  EXPECT_THROW(Link(sim, "l", cfg, &sink), std::invalid_argument);
  Link::Config ok;
  EXPECT_THROW(Link(sim, "l", ok, nullptr), std::invalid_argument);
}

TEST(EcmpTest, DeterministicAndInRange) {
  FlowKey k{3, 9, 1234, 80};
  for (std::uint32_t n : {1u, 2u, 4u, 7u}) {
    const auto a = ecmp_index(k, 5, n);
    EXPECT_LT(a, n);
    EXPECT_EQ(a, ecmp_index(k, 5, n));
  }
}

TEST(EcmpTest, SpreadsAcrossFlows) {
  std::vector<int> counts(4, 0);
  for (std::uint16_t port = 0; port < 2000; ++port) {
    FlowKey k{1, 2, port, 80};
    ++counts[ecmp_index(k, 7, 4)];
  }
  for (int c : counts) EXPECT_GT(c, 350);  // roughly uniform
}

TEST(EcmpTest, SaltChangesChoice) {
  int differing = 0;
  for (std::uint16_t port = 0; port < 256; ++port) {
    FlowKey k{1, 2, port, 80};
    if (ecmp_index(k, 1, 8) != ecmp_index(k, 2, 8)) ++differing;
  }
  EXPECT_GT(differing, 180);  // most flows pick differently per switch
}

TEST(SwitchTest, ForwardsByDestination) {
  Simulator sim;
  Sink sink_a{sim}, sink_b{sim};
  auto* sw = sim.add_component<Switch>("sw", 0);
  auto* la = sim.add_component<Link>("la", Link::Config{}, &sink_a);
  auto* lb = sim.add_component<Link>("lb", Link::Config{}, &sink_b);
  const auto pa = sw->add_port(la);
  const auto pb = sw->add_port(lb);
  sw->set_route(1, {pa});
  sw->set_route(2, {pb});
  sim.schedule_at(SimTime::from_us(1), [&] {
    sw->handle_packet(make_packet(1, 100, 0, 1));
    sw->handle_packet(make_packet(2, 100, 0, 2));
    sw->handle_packet(make_packet(3, 100, 0, 2));
  });
  sim.run();
  EXPECT_EQ(sink_a.arrivals.size(), 1u);
  EXPECT_EQ(sink_b.arrivals.size(), 2u);
  EXPECT_EQ(sw->counter().delivered, 3u);
}

TEST(SwitchTest, DropsWithoutRoute) {
  Simulator sim;
  auto* sw = sim.add_component<Switch>("sw", 0);
  sim.schedule_at(SimTime::from_us(1),
                  [&] { sw->handle_packet(make_packet(1, 100, 0, 42)); });
  sim.run();
  EXPECT_EQ(sw->counter().dropped, 1u);
}

TEST(SwitchTest, EcmpSplitsFlowsNotPackets) {
  Simulator sim;
  Sink sink_a{sim}, sink_b{sim};
  auto* sw = sim.add_component<Switch>("sw", 3);
  auto* la = sim.add_component<Link>("la", Link::Config{}, &sink_a);
  auto* lb = sim.add_component<Link>("lb", Link::Config{}, &sink_b);
  sw->set_route(9, {sw->add_port(la), sw->add_port(lb)});
  sim.schedule_at(SimTime::from_us(1), [&] {
    for (std::uint16_t port = 0; port < 64; ++port) {
      // 4 packets per flow; all packets of one flow must take one port.
      for (int i = 0; i < 4; ++i) {
        Packet p = make_packet(port * 4 + i, 100, 0, 9);
        p.flow.src_port = port;
        sw->handle_packet(std::move(p));
      }
    }
  });
  sim.run();
  EXPECT_EQ(sink_a.arrivals.size() + sink_b.arrivals.size(), 256u);
  EXPECT_GT(sink_a.arrivals.size(), 64u);  // both used
  EXPECT_GT(sink_b.arrivals.size(), 64u);
  // per-flow stability
  for (const auto& arr : {&sink_a, &sink_b}) {
    for (const auto& [t, p] : arr->arrivals) {
      const auto expected = ecmp_index(p.flow, 3, 2);
      EXPECT_EQ(arr == &sink_a ? 0u : 1u, expected);
    }
  }
}

TEST(SwitchTest, RouteValidation) {
  Simulator sim;
  auto* sw = sim.add_component<Switch>("sw", 0);
  EXPECT_THROW(sw->set_route(1, {}), std::invalid_argument);
  EXPECT_THROW(sw->set_route(1, {5}), std::invalid_argument);
  EXPECT_THROW(sw->add_port(nullptr), std::invalid_argument);
  FlowKey k{0, 1, 1, 2};
  EXPECT_THROW(sw->route_port(k), std::logic_error);
}

}  // namespace
}  // namespace esim::net
