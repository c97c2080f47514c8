#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "net/link.h"
#include "sim/simulator.h"
#include "tcp/host.h"
#include "tcp/rto.h"
#include "tcp/tcp_connection.h"

namespace esim::tcp {
namespace {

using net::Link;
using net::Packet;
using net::PacketHandler;
using sim::SimTime;
using sim::Simulator;

TEST(RtoEstimator, InitialValue) {
  RtoEstimator rto;
  EXPECT_FALSE(rto.has_sample());
  EXPECT_EQ(rto.rto(), SimTime::from_ms(100));
}

TEST(RtoEstimator, FirstSampleSetsSrttAndVar) {
  RtoEstimator::Config cfg;
  cfg.min = SimTime::from_ns(1);
  RtoEstimator rto{cfg};
  rto.add_sample(SimTime::from_ms(10));
  EXPECT_TRUE(rto.has_sample());
  EXPECT_EQ(rto.srtt(), SimTime::from_ms(10));
  EXPECT_EQ(rto.rttvar(), SimTime::from_ms(5));
  EXPECT_EQ(rto.rto(), SimTime::from_ms(30));  // srtt + 4*rttvar
}

TEST(RtoEstimator, SmoothsTowardSamples) {
  RtoEstimator::Config cfg;
  cfg.min = SimTime::from_ns(1);
  RtoEstimator rto{cfg};
  rto.add_sample(SimTime::from_ms(10));
  for (int i = 0; i < 100; ++i) rto.add_sample(SimTime::from_ms(20));
  EXPECT_NEAR(static_cast<double>(rto.srtt().ns()), 20e6, 1e5);
  // Variance decays toward zero for constant samples.
  EXPECT_LT(rto.rttvar().ns(), 1'000'000);
}

TEST(RtoEstimator, MinimumClamp) {
  RtoEstimator rto;  // default min 10ms
  rto.add_sample(SimTime::from_us(50));
  EXPECT_EQ(rto.rto(), SimTime::from_ms(10));
}

// Regression: RTTVAR's integer smoothing truncates to zero on a perfectly
// stable path; without the RFC 6298 clock-granularity floor the RTO then
// collapses to exactly SRTT, so the first microsecond of jitter fires a
// spurious retransmission.
TEST(RtoEstimator, StableRttKeepsRtoAboveSrtt) {
  RtoEstimator rto;  // default granularity 1ms, min 10ms
  for (int i = 0; i < 1000; ++i) rto.add_sample(SimTime::from_ms(50));
  EXPECT_EQ(rto.srtt(), SimTime::from_ms(50));
  EXPECT_EQ(rto.rttvar(), SimTime{});  // the variance has fully decayed
  // RTO = SRTT + max(G, 4*RTTVAR) = 50ms + 1ms, strictly above SRTT.
  EXPECT_EQ(rto.rto(), SimTime::from_ms(51));
  EXPECT_GT(rto.rto(), rto.srtt());
}

TEST(RtoEstimator, GranularityFloorIsConfigurable) {
  RtoEstimator::Config cfg;
  cfg.granularity = SimTime::from_us(100);
  cfg.min = SimTime::from_us(1);
  RtoEstimator rto{cfg};
  for (int i = 0; i < 1000; ++i) rto.add_sample(SimTime::from_ms(50));
  EXPECT_EQ(rto.rto(), SimTime::from_ms(50) + SimTime::from_us(100));
}

TEST(RtoEstimator, BackoffDoublesAndClamps) {
  RtoEstimator::Config cfg;
  cfg.max = SimTime::from_ms(300);
  RtoEstimator rto{cfg};  // initial 100ms
  rto.backoff();
  EXPECT_EQ(rto.rto(), SimTime::from_ms(200));
  rto.backoff();
  EXPECT_EQ(rto.rto(), SimTime::from_ms(300));
  rto.backoff();
  EXPECT_EQ(rto.rto(), SimTime::from_ms(300));
}

TEST(RtoEstimator, SampleResetsBackoff) {
  RtoEstimator::Config cfg;
  cfg.min = SimTime::from_ms(10);
  RtoEstimator rto{cfg};
  rto.add_sample(SimTime::from_ms(4));
  rto.backoff();
  const auto backed_off = rto.rto();
  rto.add_sample(SimTime::from_ms(4));
  EXPECT_LT(rto.rto(), backed_off);
}

/// Interposer that can drop selected packets between a link and a host.
class LossGate : public PacketHandler {
 public:
  explicit LossGate(PacketHandler* inner) : inner_{inner} {}
  void handle_packet(Packet pkt) override {
    ++seen;
    if (should_drop && should_drop(pkt)) {
      ++dropped;
      return;
    }
    inner_->handle_packet(std::move(pkt));
  }
  std::function<bool(const Packet&)> should_drop;
  int seen = 0;
  int dropped = 0;

 private:
  PacketHandler* inner_;
};

/// Two hosts connected back-to-back through loss gates.
struct Pair {
  explicit Pair(std::uint64_t seed = 1,
                const TcpConnection::Config& cfg = {})
      : sim{seed} {
    a = sim.add_component<Host>("a", 0, cfg);
    b = sim.add_component<Host>("b", 1, cfg);
    gate_to_b = std::make_unique<LossGate>(b);
    gate_to_a = std::make_unique<LossGate>(a);
    Link::Config lc;
    lc.bandwidth_bps = 10e9;
    lc.propagation = SimTime::from_us(5);
    // Host TX buffer: large, like a real NIC ring + qdisc. Bursts of a
    // full congestion window must not self-drop on the sender.
    lc.queue_capacity_bytes = 4'000'000;
    ab = sim.add_component<Link>("ab", lc, gate_to_b.get());
    ba = sim.add_component<Link>("ba", lc, gate_to_a.get());
    a->set_uplink(ab);
    b->set_uplink(ba);
  }

  Simulator sim;
  Host* a;
  Host* b;
  Link* ab;
  Link* ba;
  std::unique_ptr<LossGate> gate_to_b;
  std::unique_ptr<LossGate> gate_to_a;
};

TEST(TcpConnection, HandshakeEstablishesBothSides) {
  Pair p;
  bool client_est = false, server_est = false;
  p.b->on_accept = [&](TcpConnection& c) {
    c.on_established = [&] { server_est = true; };
  };
  TcpConnection* conn = nullptr;
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    conn = p.a->open_flow(1, 0, 1);
    conn->on_established = [&] { client_est = true; };
  });
  p.sim.run();
  EXPECT_TRUE(client_est);
  EXPECT_TRUE(server_est);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->state(), TcpState::Done);  // zero-byte flow closes
}

TEST(TcpConnection, SmallFlowDeliversAllBytes) {
  Pair p;
  std::uint64_t received = 0;
  bool complete = false;
  p.b->on_accept = [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t d) { received += d; };
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    auto* c = p.a->open_flow(1, 5000, 1);
    c->on_complete = [&] { complete = true; };
  });
  p.sim.run();
  EXPECT_TRUE(complete);
  EXPECT_EQ(received, 5000u);
}

TEST(TcpConnection, LargeFlowCompletesAndGrowsWindow) {
  Pair p;
  bool complete = false;
  TcpConnection* conn = nullptr;
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    conn = p.a->open_flow(1, 2'000'000, 1);
    conn->on_complete = [&] { complete = true; };
  });
  p.sim.run();
  EXPECT_TRUE(complete);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->stats().retransmissions, 0u);  // clean path, no loss
  EXPECT_EQ(conn->stats().timeouts, 0u);
  EXPECT_GT(conn->cwnd(), 10.0 * net::kMss);  // grew past initial window
  EXPECT_EQ(conn->bytes_done(), 2'000'000u);
}

TEST(TcpConnection, CompletionTimeIsPlausible) {
  Pair p;
  SimTime done_at;
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    auto* c = p.a->open_flow(1, 100'000, 1);
    c->on_complete = [&] { done_at = p.sim.now(); };
  });
  p.sim.run();
  // 100 KB at 10 Gbps is ~80 us serialized + handshake + a few RTTs
  // (10 us each); must be well under a millisecond with no loss.
  EXPECT_GT(done_at.ns(), 0);
  EXPECT_LT(done_at, SimTime::from_ms(1));
}

TEST(TcpConnection, FastRetransmitRecoversSingleLoss) {
  Pair p;
  bool complete = false;
  TcpConnection* conn = nullptr;
  // Drop the first transmission of the segment starting at byte 20441
  // (the 15th data segment; window is large enough for dup ACKs).
  bool dropped_once = false;
  p.gate_to_b->should_drop = [&](const Packet& pkt) {
    if (pkt.payload > 0 && pkt.seq == 1 + 14 * 1460 && !dropped_once) {
      dropped_once = true;
      return true;
    }
    return false;
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    conn = p.a->open_flow(1, 200'000, 1);
    conn->on_complete = [&] { complete = true; };
  });
  p.sim.run();
  EXPECT_TRUE(complete);
  EXPECT_TRUE(dropped_once);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->stats().timeouts, 0u) << "loss should not need an RTO";
  EXPECT_EQ(conn->stats().fast_recoveries, 1u);
  EXPECT_GE(conn->stats().retransmissions, 1u);
}

TEST(TcpConnection, MultipleLossesInWindowUseNewRenoPartialAcks) {
  Pair p;
  bool complete = false;
  TcpConnection* conn = nullptr;
  std::set<std::uint32_t> to_drop = {1 + 20 * 1460, 1 + 24 * 1460};
  std::set<std::uint32_t> dropped;
  p.gate_to_b->should_drop = [&](const Packet& pkt) {
    if (pkt.payload > 0 && to_drop.contains(pkt.seq) &&
        !dropped.contains(pkt.seq)) {
      dropped.insert(pkt.seq);
      return true;
    }
    return false;
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    conn = p.a->open_flow(1, 400'000, 1);
    conn->on_complete = [&] { complete = true; };
  });
  p.sim.run();
  EXPECT_TRUE(complete);
  EXPECT_EQ(dropped.size(), 2u);
  ASSERT_NE(conn, nullptr);
  // New Reno handles both holes in one recovery episode without timeout.
  EXPECT_EQ(conn->stats().timeouts, 0u);
  EXPECT_EQ(conn->stats().fast_recoveries, 1u);
  EXPECT_GE(conn->stats().retransmissions, 2u);
}

TEST(TcpConnection, TailLossRecoversViaRto) {
  Pair p;
  bool complete = false;
  TcpConnection* conn = nullptr;
  bool dropped_once = false;
  // Drop the very last segment: no dup ACKs can follow, so only the RTO
  // can recover it.
  p.gate_to_b->should_drop = [&](const Packet& pkt) {
    if (pkt.payload > 0 && pkt.seq + pkt.payload == 1 + 30'000 &&
        !dropped_once) {
      dropped_once = true;
      return true;
    }
    return false;
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    conn = p.a->open_flow(1, 30'000, 1);
    conn->on_complete = [&] { complete = true; };
  });
  p.sim.run();
  EXPECT_TRUE(complete);
  ASSERT_NE(conn, nullptr);
  EXPECT_GE(conn->stats().timeouts, 1u);
  EXPECT_EQ(conn->state(), TcpState::Done);
}

TEST(TcpConnection, SynLossRetransmitsHandshake) {
  Pair p;
  bool complete = false;
  bool dropped_syn = false;
  p.gate_to_b->should_drop = [&](const Packet& pkt) {
    if (pkt.has(net::TcpFlag::Syn) && !dropped_syn) {
      dropped_syn = true;
      return true;
    }
    return false;
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    auto* c = p.a->open_flow(1, 1000, 1);
    c->on_complete = [&] { complete = true; };
  });
  p.sim.run();
  EXPECT_TRUE(dropped_syn);
  EXPECT_TRUE(complete);
}

TEST(TcpConnection, SynAckLossRecovered) {
  Pair p;
  bool complete = false;
  bool dropped = false;
  p.gate_to_a->should_drop = [&](const Packet& pkt) {
    if (pkt.has(net::TcpFlag::Syn) && pkt.has(net::TcpFlag::Ack) &&
        !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    auto* c = p.a->open_flow(1, 1000, 1);
    c->on_complete = [&] { complete = true; };
  });
  p.sim.run();
  EXPECT_TRUE(dropped);
  EXPECT_TRUE(complete);
}

TEST(TcpConnection, FinLossStillCloses) {
  Pair p;
  TcpConnection* conn = nullptr;
  bool dropped = false;
  p.gate_to_b->should_drop = [&](const Packet& pkt) {
    if (pkt.has(net::TcpFlag::Fin) && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  p.sim.schedule_at(SimTime::from_us(1),
                    [&] { conn = p.a->open_flow(1, 1000, 1); });
  p.sim.run();
  EXPECT_TRUE(dropped);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->state(), TcpState::Done);
}

TEST(TcpConnection, AckLossIsAbsorbedByCumulativeAcks) {
  Pair p;
  bool complete = false;
  int dropped = 0;
  p.gate_to_a->should_drop = [&](const Packet& pkt) {
    // Drop every third pure ACK mid-flow. Tail ACKs are spared: losing
    // the final ACK leaves nothing cumulative to absorb it, so an RTO
    // would be correct behaviour rather than a bug.
    if (pkt.payload == 0 && pkt.has(net::TcpFlag::Ack) &&
        !pkt.has(net::TcpFlag::Syn) && !pkt.has(net::TcpFlag::Fin) &&
        pkt.ack_seq < 250'000) {
      if (++dropped % 3 == 0) return true;
    }
    return false;
  };
  TcpConnection* conn = nullptr;
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    conn = p.a->open_flow(1, 300'000, 1);
    conn->on_complete = [&] { complete = true; };
  });
  p.sim.run();
  EXPECT_TRUE(complete);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->stats().timeouts, 0u);
}

TEST(TcpConnection, RttSamplesCollected) {
  Pair p;
  stats::LatencyCollector rtt;
  p.a->set_rtt_collector(&rtt);
  p.sim.schedule_at(SimTime::from_us(1),
                    [&] { p.a->open_flow(1, 100'000, 1); });
  p.sim.run();
  EXPECT_GT(rtt.summary().count(), 10u);
  // Base RTT here is 2 * 5us propagation plus serialization; samples must
  // be at least that and below a loose bound.
  EXPECT_GE(rtt.summary().min(), 10e-6);
  EXPECT_LT(rtt.summary().max(), 1e-3);
}

TEST(TcpConnection, ConcurrentFlowsDemuxCorrectly) {
  Pair p;
  int completions = 0;
  std::uint64_t received = 0;
  p.b->on_accept = [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t d) { received += d; };
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    for (int i = 0; i < 10; ++i) {
      auto* c = p.a->open_flow(1, 10'000, 100 + i);
      c->on_complete = [&] { ++completions; };
    }
  });
  p.sim.run();
  EXPECT_EQ(completions, 10);
  EXPECT_EQ(received, 100'000u);
  // 10 active on a, 10 passive on b.
  EXPECT_EQ(p.a->connections().size(), 10u);
  EXPECT_EQ(p.b->connections().size(), 10u);
}

TEST(TcpConnection, DelayedAckHalvesAckTraffic) {
  TcpConnection::Config cfg;
  cfg.delayed_ack = false;
  Pair eager{1, cfg};
  cfg.delayed_ack = true;
  Pair delayed{1, cfg};

  auto run_flow = [](Pair& p) {
    p.sim.schedule_at(SimTime::from_us(1),
                      [&] { p.a->open_flow(1, 500'000, 1); });
    p.sim.run();
    return p.ba->counter().sent;  // ACK packets from b to a
  };
  const auto acks_eager = run_flow(eager);
  const auto acks_delayed = run_flow(delayed);
  EXPECT_LT(acks_delayed, acks_eager * 3 / 4);
  EXPECT_GT(acks_delayed, acks_eager / 4);
}

TEST(TcpConnection, StatsBytesAckedMatchesFlow) {
  Pair p;
  TcpConnection* conn = nullptr;
  p.sim.schedule_at(SimTime::from_us(1),
                    [&] { conn = p.a->open_flow(1, 77'777, 1); });
  p.sim.run();
  ASSERT_NE(conn, nullptr);
  // payload + FIN; the SYN is acknowledged during the handshake, before
  // the established-state ACK accounting starts.
  EXPECT_EQ(conn->stats().bytes_acked, 77'777u + 1u);
  EXPECT_EQ(conn->bytes_done(), 77'777u);
}

TEST(TcpConnection, ReceiverBytesDone) {
  Pair p;
  TcpConnection* server = nullptr;
  p.b->on_accept = [&](TcpConnection& c) { server = &c; };
  p.sim.schedule_at(SimTime::from_us(1),
                    [&] { p.a->open_flow(1, 12'345, 1); });
  p.sim.run();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_done(), 12'345u);
  EXPECT_EQ(server->state(), TcpState::Done);
}

TEST(TcpConnection, SequentialFlowsReusePair) {
  Pair p;
  int completions = 0;
  std::function<void(int)> launch = [&](int remaining) {
    auto* c = p.a->open_flow(1, 5'000, 1);
    c->on_complete = [&, remaining] {
      ++completions;
      if (remaining > 1) launch(remaining - 1);
    };
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] { launch(5); });
  p.sim.run();
  EXPECT_EQ(completions, 5);
}

TEST(Host, RejectsFlowWithoutUplink) {
  Simulator sim;
  auto* h = sim.add_component<Host>("h", 0);
  EXPECT_THROW(h->open_flow(1, 100, 1), std::logic_error);
}

TEST(Host, PacketIdsUniqueAndTagged) {
  Pair p;
  std::set<std::uint64_t> ids;
  p.ab->on_transmit = [&](const Packet& pkt, SimTime) {
    EXPECT_TRUE(ids.insert(pkt.id).second) << "duplicate packet id";
    EXPECT_EQ(pkt.id >> 40, 0u);  // host id 0
  };
  p.sim.schedule_at(SimTime::from_us(1),
                    [&] { p.a->open_flow(1, 50'000, 1); });
  p.sim.run();
  EXPECT_GT(ids.size(), 30u);
}


// --- finished connections ----------------------------------------------

/// Folds every field of each transmitted packet, and its arrival time,
/// into one order-sensitive value.
struct TransmitHash {
  void absorb(std::uint64_t v) {
    value = (value ^ v) * 0x100000001B3ULL;
    value ^= value >> 29;
  }
  void absorb(const Packet& pkt, SimTime arrival) {
    for (const std::uint64_t v :
         {pkt.id, std::uint64_t{pkt.flow.src_host},
          std::uint64_t{pkt.flow.dst_host}, std::uint64_t{pkt.flow.src_port},
          std::uint64_t{pkt.flow.dst_port}, pkt.flow_id,
          static_cast<std::uint64_t>(pkt.flags), std::uint64_t{pkt.seq},
          std::uint64_t{pkt.ack_seq}, std::uint64_t{pkt.payload},
          std::uint64_t{pkt.ecn}, std::uint64_t{pkt.ece},
          static_cast<std::uint64_t>(pkt.ts_echo.ns()),
          static_cast<std::uint64_t>(pkt.sent_at.ns()),
          static_cast<std::uint64_t>(arrival.ns())}) {
      absorb(v);
    }
  }
  std::uint64_t value = 0xCBF29CE484222325ULL;
};

// A copy of the FIN reaches the receiver ~5 ms late, after both ends have
// finished and both hosts have opened or accepted another connection, so
// both finished ends answer it as tombstones: the receiver re-ACKs once
// under the old flow id, and the sender counts that ACK and stays silent.
// The packet stream and counters equal those of a build that keeps every
// finished connection (constants recorded there).
TEST(Host, LateDuplicateDrawsOneTombstoneAck) {
  Pair p;
  constexpr std::uint64_t kBytes = 3'000;
  TransmitHash hash;
  std::vector<std::pair<SimTime, Packet>> from_b;
  p.ab->on_transmit = [&](const Packet& pkt, SimTime arrival) {
    hash.absorb(pkt, arrival);
  };
  p.ba->on_transmit = [&](const Packet& pkt, SimTime arrival) {
    hash.absorb(pkt, arrival);
    from_b.emplace_back(p.sim.now(), pkt);
  };

  Packet late;
  SimTime late_at;
  p.gate_to_b->should_drop = [&](const Packet& pkt) {
    if (pkt.has(net::TcpFlag::Fin) && late_at == SimTime{}) {
      late = pkt;
      late_at = p.sim.now() + SimTime::from_ms(5);
      p.sim.schedule_at(late_at, [&] { p.b->handle_packet(late); });
    }
    return false;
  };
  std::uint64_t a_delivered_before = 0;
  std::uint64_t a_sent_before = 0;
  p.gate_to_a->should_drop = [&](const Packet&) {
    if (late_at != SimTime{} && p.sim.now() >= late_at) {
      a_delivered_before = p.a->counter().delivered;
      a_sent_before = p.a->counter().sent;
    }
    return false;
  };

  TcpConnection* first = nullptr;
  net::FlowKey first_key;
  bool first_done = false;
  bool second_done = false;
  p.sim.schedule_at(SimTime::from_us(1), [&] {
    first = p.a->open_flow(1, kBytes, 7);
    first_key = first->key();
    first->on_complete = [&] { first_done = true; };
  });
  p.sim.schedule_at(SimTime::from_ms(1), [&] {
    ASSERT_EQ(first->state(), TcpState::Done);
    ASSERT_EQ(p.b->connections().at(first_key.reversed())->state(),
              TcpState::Done);
    auto* second = p.b->open_flow(0, 2'000, 8);
    second->on_complete = [&] { second_done = true; };
  });
  p.sim.run();

  EXPECT_TRUE(first_done);
  EXPECT_TRUE(second_done);
  ASSERT_GT(late_at, SimTime::from_ms(5));
  std::vector<Packet> answers;
  for (const auto& [at, pkt] : from_b) {
    if (at >= late_at) answers.push_back(pkt);
  }
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].flow, first_key.reversed());
  EXPECT_EQ(answers[0].flow_id, 7u);
  EXPECT_EQ(answers[0].flags, net::TcpFlag::Ack);
  EXPECT_EQ(answers[0].ack_seq, 1 + kBytes + 1);
  EXPECT_EQ(answers[0].ts_echo, late.sent_at);
  EXPECT_FALSE(answers[0].ece);
  EXPECT_EQ(p.a->counter().delivered, a_delivered_before + 1);
  EXPECT_EQ(p.a->counter().sent, a_sent_before);

  // Both ends of the first flow are tombstones by now.
  EXPECT_EQ(p.a->connections().count(first_key), 0u);
  EXPECT_EQ(p.b->connections().count(first_key.reversed()), 0u);
  EXPECT_TRUE(p.a->has_connection(first_key));
  EXPECT_TRUE(p.b->has_connection(first_key.reversed()));

  EXPECT_EQ(hash.value, 13675904897724477740ULL);
  EXPECT_EQ(p.a->counter().sent, 10u);
  EXPECT_EQ(p.a->counter().delivered, 11u);
  EXPECT_EQ(p.a->counter().dropped, 0u);
  EXPECT_EQ(p.b->counter().sent, 11u);
  EXPECT_EQ(p.b->counter().delivered, 11u);
  EXPECT_EQ(p.b->counter().dropped, 0u);
}

// Memory follows the open flows: back-to-back flows on one pair leave at
// most a couple of connections per host, every finished tuple is still
// known to has_connection, and reclaiming schedules and cancels nothing
// (the event count equals that of a build that keeps every connection).
TEST(Host, BackToBackFlowsKeepTheLiveSetSmall) {
  Pair p;
  constexpr std::size_t kFlows = 5'000;
  std::vector<net::FlowKey> keys;
  std::size_t max_live = 0;
  std::size_t completions = 0;
  p.b->on_accept = [&](TcpConnection&) {
    max_live = std::max(max_live, p.b->connections().size());
  };
  std::function<void()> launch = [&] {
    auto* c = p.a->open_flow(1, 2'000, keys.size() + 1);
    keys.push_back(c->key());
    max_live = std::max(max_live, p.a->connections().size());
    c->on_complete = [&] {
      ++completions;
      if (keys.size() < kFlows) launch();
    };
  };
  p.sim.schedule_at(SimTime::from_us(1), [&] { launch(); });
  p.sim.run();

  EXPECT_EQ(completions, kFlows);
  EXPECT_LE(max_live, 2u);
  for (const net::FlowKey& key : keys) {
    EXPECT_TRUE(p.a->has_connection(key));
    EXPECT_TRUE(p.b->has_connection(key.reversed()));
  }
  EXPECT_EQ(p.sim.events_scheduled(), 70'001u);
}

// A receiver's on_closed may open the response on its own host, as a
// request/response server would. That open reclaims while the finished receiver
// is still inside its on_packet, so the receiver must survive it and
// become a tombstone at its host's next open instead.
TEST(Host, ClosingReceiverIsReclaimedAtTheNextOpen) {
  Pair p;
  net::FlowKey request;  // b's side of a's request
  int responses = 0;
  p.b->on_accept = [&](TcpConnection& c) {
    request = c.key();
    c.on_closed = [&] { p.b->open_flow(0, 1'000, 100 + ++responses); };
  };
  p.sim.schedule_at(SimTime::from_us(1),
                    [&] { p.a->open_flow(1, 3'000, 1); });
  p.sim.run();
  ASSERT_EQ(responses, 1);
  EXPECT_EQ(p.b->connections().count(request), 1u);

  p.sim.schedule_at(p.sim.now() + SimTime::from_us(1),
                    [&] { p.b->open_flow(0, 1'000, 200); });
  p.sim.run();
  EXPECT_EQ(p.b->connections().count(request), 0u);
  EXPECT_TRUE(p.b->has_connection(request));
}

}  // namespace
}  // namespace esim::tcp
