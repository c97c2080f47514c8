// Property tests of the TCP stack: reliability invariants under
// parameterized random loss.
//
// The invariant under test is TCP's contract: for ANY pattern of packet
// loss (as long as loss is not permanent), the receiver obtains exactly
// the flow's bytes, in order, exactly once, and the sender learns of it.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>

#include "net/link.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "tcp/host.h"

namespace esim::tcp {
namespace {

using net::Link;
using net::Packet;
using net::PacketHandler;
using sim::SimTime;
using sim::Simulator;

/// Drops packets i.i.d. with probability p, from a deterministic stream.
class BernoulliLoss : public PacketHandler {
 public:
  BernoulliLoss(PacketHandler* inner, double p, std::uint64_t seed)
      : inner_{inner}, p_{p}, rng_{seed} {}
  void handle_packet(Packet pkt) override {
    if (rng_.bernoulli(p_)) return;
    inner_->handle_packet(std::move(pkt));
  }

 private:
  PacketHandler* inner_;
  double p_;
  sim::Rng rng_;
};

struct LossCase {
  double loss_rate;
  std::uint64_t flow_bytes;
  bool delayed_ack;
};

class TcpLossProperty : public ::testing::TestWithParam<LossCase> {};

TEST_P(TcpLossProperty, DeliversExactlyTheFlowBytes) {
  const auto param = GetParam();
  Simulator sim{static_cast<std::uint64_t>(param.loss_rate * 1000) + 7};
  TcpConnection::Config tcp_cfg;
  tcp_cfg.delayed_ack = param.delayed_ack;
  auto* a = sim.add_component<Host>("a", 0, tcp_cfg);
  auto* b = sim.add_component<Host>("b", 1, tcp_cfg);
  BernoulliLoss to_b{b, param.loss_rate, 11};
  BernoulliLoss to_a{a, param.loss_rate, 13};
  Link::Config lc;
  lc.bandwidth_bps = 10e9;
  lc.propagation = SimTime::from_us(5);
  lc.queue_capacity_bytes = 4'000'000;
  auto* ab = sim.add_component<Link>("ab", lc, &to_b);
  auto* ba = sim.add_component<Link>("ba", lc, &to_a);
  a->set_uplink(ab);
  b->set_uplink(ba);

  std::uint64_t received = 0;
  std::uint64_t deliveries = 0;
  b->on_accept = [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t d) {
      received += d;
      ++deliveries;
    };
  };
  bool complete = false;
  TcpConnection* conn = nullptr;
  sim.schedule_at(SimTime::from_us(1), [&] {
    conn = a->open_flow(1, param.flow_bytes, 1);
    conn->on_complete = [&] { complete = true; };
  });
  sim.run_until(SimTime::from_sec(120));

  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(complete) << "flow stalled at loss rate " << param.loss_rate;
  // Exactly-once, in-order delivery: cumulative bytes equal the flow.
  EXPECT_EQ(received, param.flow_bytes);
  EXPECT_EQ(conn->bytes_done(), param.flow_bytes);
  if (param.loss_rate == 0.0) {
    EXPECT_EQ(conn->stats().retransmissions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossSweep, TcpLossProperty,
    ::testing::Values(LossCase{0.0, 200'000, false},
                      LossCase{0.001, 200'000, false},
                      LossCase{0.01, 200'000, false},
                      LossCase{0.05, 100'000, false},
                      LossCase{0.10, 50'000, false},
                      LossCase{0.20, 20'000, false},
                      LossCase{0.01, 200'000, true},
                      LossCase{0.05, 100'000, true}),
    [](const ::testing::TestParamInfo<LossCase>& info) {
      return "loss" +
             std::to_string(
                 static_cast<int>(info.param.loss_rate * 1000)) +
             (info.param.delayed_ack ? "_delack" : "") + "_bytes" +
             std::to_string(info.param.flow_bytes);
    });

struct SizeCase {
  std::uint64_t bytes;
};

class TcpSizeProperty : public ::testing::TestWithParam<SizeCase> {};

TEST_P(TcpSizeProperty, AnyFlowSizeCompletesCleanly) {
  // Edge sizes: sub-MSS, exactly one MSS, MSS+1, many segments, odd tail.
  const auto bytes = GetParam().bytes;
  Simulator sim{bytes + 3};
  auto* a = sim.add_component<Host>("a", 0);
  auto* b = sim.add_component<Host>("b", 1);
  Link::Config lc;
  lc.queue_capacity_bytes = 4'000'000;
  auto* ab = sim.add_component<Link>("ab", lc, b);
  auto* ba = sim.add_component<Link>("ba", lc, a);
  a->set_uplink(ab);
  b->set_uplink(ba);
  std::uint64_t received = 0;
  b->on_accept = [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t d) { received += d; };
  };
  bool complete = false;
  TcpConnection* conn = nullptr;
  sim.schedule_at(SimTime::from_us(1), [&] {
    conn = a->open_flow(1, bytes, 1);
    conn->on_complete = [&] { complete = true; };
  });
  sim.run();
  EXPECT_TRUE(complete);
  EXPECT_EQ(received, bytes);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->state(), TcpState::Done);
  EXPECT_EQ(conn->stats().timeouts, 0u);
}

/// Swaps every Nth packet with its successor (delays it until the next
/// packet has been delivered), injecting reordering without loss.
class ReorderGate : public PacketHandler {
 public:
  ReorderGate(PacketHandler* inner, int every) : inner_{inner}, every_{every} {}
  void handle_packet(Packet pkt) override {
    ++count_;
    if (held_) {
      Packet first = std::move(pkt);
      Packet second = std::move(*held_);
      held_.reset();
      inner_->handle_packet(std::move(first));
      inner_->handle_packet(std::move(second));
      return;
    }
    if (pkt.payload > 0 && count_ % every_ == 0) {
      held_ = std::move(pkt);
      return;
    }
    inner_->handle_packet(std::move(pkt));
  }
  void flush() {
    if (held_) {
      inner_->handle_packet(std::move(*held_));
      held_.reset();
    }
  }

 private:
  PacketHandler* inner_;
  int every_;
  int count_ = 0;
  std::optional<Packet> held_;
};

class TcpReorderProperty : public ::testing::TestWithParam<int> {};

TEST_P(TcpReorderProperty, ReorderingNeverCorruptsData) {
  const int every = GetParam();
  Simulator sim{static_cast<std::uint64_t>(every) + 40};
  auto* a = sim.add_component<Host>("a", 0);
  auto* b = sim.add_component<Host>("b", 1);
  ReorderGate gate{b, every};
  Link::Config lc;
  lc.queue_capacity_bytes = 4'000'000;
  auto* ab = sim.add_component<Link>("ab", lc, &gate);
  auto* ba = sim.add_component<Link>("ba", lc, a);
  a->set_uplink(ab);
  b->set_uplink(ba);

  std::uint64_t received = 0;
  b->on_accept = [&](TcpConnection& c) {
    c.on_data = [&](std::uint64_t d) { received += d; };
  };
  bool complete = false;
  constexpr std::uint64_t kBytes = 300'000;
  sim.schedule_at(SimTime::from_us(1), [&] {
    auto* c = a->open_flow(1, kBytes, 1);
    c->on_complete = [&] { complete = true; };
  });
  sim.run_until(SimTime::from_sec(10));
  gate.flush();
  sim.run_until(SimTime::from_sec(20));
  EXPECT_TRUE(complete) << "reorder every " << every;
  EXPECT_EQ(received, kBytes);
}

INSTANTIATE_TEST_SUITE_P(ReorderSweep, TcpReorderProperty,
                         ::testing::Values(3, 5, 10, 50),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "every" + std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, TcpSizeProperty,
    ::testing::Values(SizeCase{0}, SizeCase{1}, SizeCase{1459},
                      SizeCase{1460}, SizeCase{1461}, SizeCase{2920},
                      SizeCase{14'600}, SizeCase{1'000'001}),
    [](const ::testing::TestParamInfo<SizeCase>& info) {
      return "bytes" + std::to_string(info.param.bytes);
    });

}  // namespace
}  // namespace esim::tcp
