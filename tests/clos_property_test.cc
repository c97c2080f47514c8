// Property tests over Clos topologies of many shapes: path-replay
// validity, flow conservation through every switch and link (including
// under engineered congestion drops), ECMP symmetry/spread, and the
// stronger end-to-end invariant that every injected packet is forwarded
// by the built network to exactly its destination host along the
// replayed path.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/network.h"
#include "net/clos.h"
#include "net/ecmp.h"
#include "sim/random.h"

namespace esim::net {
namespace {

struct Shape {
  std::uint32_t clusters, tors, aggs, hosts_per_tor, cores;
};

ClosSpec to_spec(const Shape& s) {
  ClosSpec spec;
  spec.clusters = s.clusters;
  spec.tors_per_cluster = s.tors;
  spec.aggs_per_cluster = s.aggs;
  spec.hosts_per_tor = s.hosts_per_tor;
  spec.cores = s.cores;
  spec.validate();
  return spec;
}

class ClosShapeProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(ClosShapeProperty, PathReplayInvariants) {
  const auto spec = to_spec(GetParam());
  sim::Rng rng{GetParam().clusters * 131 + GetParam().tors};
  for (int trial = 0; trial < 200; ++trial) {
    FlowKey flow;
    flow.src_host = static_cast<HostId>(rng.uniform_int(spec.total_hosts()));
    do {
      flow.dst_host =
          static_cast<HostId>(rng.uniform_int(spec.total_hosts()));
    } while (flow.dst_host == flow.src_host);
    flow.src_port = static_cast<std::uint16_t>(rng.uniform_int(50'000));
    flow.dst_port = 80;

    const auto path = compute_path(spec, flow);
    ASSERT_GE(path.len, 1u);
    ASSERT_LE(path.len, 5u);
    // First hop is always the source ToR; last is the destination ToR.
    EXPECT_EQ(path.hops[0], spec.tor_of_host(flow.src_host));
    EXPECT_EQ(path.hops[path.len - 1], spec.tor_of_host(flow.dst_host));
    // Layer pattern by length.
    if (path.len == 1) {
      EXPECT_EQ(spec.tor_of_host(flow.src_host),
                spec.tor_of_host(flow.dst_host));
    } else if (path.len == 3) {
      EXPECT_TRUE(spec.is_agg(path.hops[1]));
      EXPECT_EQ(spec.cluster_of_switch(path.hops[1]),
                spec.cluster_of_host(flow.src_host));
    } else {
      ASSERT_EQ(path.len, 5u);
      EXPECT_TRUE(spec.is_agg(path.hops[1]));
      EXPECT_TRUE(spec.is_core(path.hops[2]));
      EXPECT_TRUE(spec.is_agg(path.hops[3]));
      EXPECT_EQ(spec.cluster_of_switch(path.hops[1]),
                spec.cluster_of_host(flow.src_host));
      EXPECT_EQ(spec.cluster_of_switch(path.hops[3]),
                spec.cluster_of_host(flow.dst_host));
    }
    // Replay is deterministic.
    EXPECT_EQ(compute_path(spec, flow), path);
  }
}

TEST_P(ClosShapeProperty, BuiltNetworkDeliversToExactDestination) {
  const auto spec = to_spec(GetParam());
  sim::Simulator sim{7};
  core::NetworkConfig cfg;
  cfg.spec = spec;
  auto net = core::build_full_network(sim, cfg);

  // Tap every host downlink: note which host each packet reaches.
  std::vector<std::uint64_t> delivered_to(spec.total_hosts(), 0);
  std::uint64_t deliveries = 0;
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    net.host_downlinks[h]->on_transmit =
        [&delivered_to, &deliveries, h](const Packet& pkt, sim::SimTime) {
          EXPECT_EQ(pkt.flow.dst_host, h)
              << "packet for host " << pkt.flow.dst_host
              << " delivered to host " << h;
          ++delivered_to[h];
          ++deliveries;
        };
  }

  // Inject raw packets at source ToRs for random pairs (below any
  // congestion, so nothing drops).
  sim::Rng rng{99};
  std::uint64_t injected = 0;
  sim.schedule_at(sim::SimTime::from_us(1), [&] {
    for (int i = 0; i < 300; ++i) {
      Packet pkt;
      pkt.id = static_cast<std::uint64_t>(i) + 1;
      pkt.flow.src_host =
          static_cast<HostId>(rng.uniform_int(spec.total_hosts()));
      do {
        pkt.flow.dst_host =
            static_cast<HostId>(rng.uniform_int(spec.total_hosts()));
      } while (pkt.flow.dst_host == pkt.flow.src_host);
      pkt.flow.src_port = static_cast<std::uint16_t>(i);
      pkt.flow.dst_port = 80;
      pkt.payload = 100;
      net.switches[spec.tor_of_host(pkt.flow.src_host)]->handle_packet(pkt);
      ++injected;
    }
  });
  sim.run();
  EXPECT_EQ(deliveries, injected);
}

// The node a link feeds, parsed from its "<src>-><dst>" builder name.
std::string link_dst_name(const Link* link) {
  const std::string& n = link->name();
  const auto pos = n.find("->");
  EXPECT_NE(pos, std::string::npos) << "unparseable link name: " << n;
  return n.substr(pos + 2);
}

// Flow conservation: every packet offered to the fabric is accounted for —
// at each link (sent == delivered + dropped once queues drain), at each
// switch (packets in == packets forwarded + packets dropped), and end to
// end (injected == host deliveries + drops). Convergent bursts from every
// remote ToR onto one host engineer real congestion drops where the shape
// allows them, so the identity is checked on the lossy path too.
TEST_P(ClosShapeProperty, FlowConservationThroughSwitchesAndLinks) {
  const auto spec = to_spec(GetParam());
  sim::Simulator sim{11};
  core::NetworkConfig cfg;
  cfg.spec = spec;
  auto net = core::build_full_network(sim, cfg);

  // Enumerate every link: each switch's output ports plus host uplinks.
  // Group them by receiving switch (links into hosts are terminal).
  std::map<std::string, SwitchId> switch_by_name;
  for (SwitchId s = 0; s < spec.total_switches(); ++s) {
    switch_by_name[net.switches[s]->name()] = s;
  }
  std::vector<std::vector<const Link*>> in_links(spec.total_switches());
  std::vector<const Link*> all_links;
  auto note_link = [&](const Link* link) {
    all_links.push_back(link);
    const auto it = switch_by_name.find(link_dst_name(link));
    if (it != switch_by_name.end()) in_links[it->second].push_back(link);
  };
  for (SwitchId s = 0; s < spec.total_switches(); ++s) {
    for (std::uint32_t p = 0; p < net.switches[s]->port_count(); ++p) {
      note_link(net.switches[s]->port(p));
    }
  }
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    note_link(net.host_uplinks[h]);
  }

  // All remote hosts burst toward one victim at the same instant. With
  // two or more source ToRs the victim's downlink is oversubscribed and
  // must shed load; with fewer the same identities hold drop-free.
  const HostId victim = 0;
  std::vector<std::uint64_t> injected_at(spec.total_switches(), 0);
  std::uint64_t injected = 0;
  sim.schedule_at(sim::SimTime::from_us(1), [&] {
    std::uint64_t next_id = 1;
    for (HostId src = 0; src < spec.total_hosts(); ++src) {
      if (spec.tor_of_host(src) == spec.tor_of_host(victim)) continue;
      for (int i = 0; i < 300; ++i) {
        Packet pkt;
        pkt.id = next_id++;
        pkt.flow.src_host = src;
        pkt.flow.dst_host = victim;
        pkt.flow.src_port = static_cast<std::uint16_t>(i);
        pkt.flow.dst_port = 80;
        pkt.payload = kMss;
        net.switches[spec.tor_of_host(src)]->handle_packet(pkt);
        ++injected_at[spec.tor_of_host(src)];
        ++injected;
      }
    }
  });
  sim.run();
  ASSERT_GT(injected, 0u);

  // Per-link: nothing in flight after the run, and every offered packet
  // either finished the wire or was counted dropped.
  std::uint64_t link_drops = 0;
  for (const Link* link : all_links) {
    EXPECT_EQ(link->queued_packets(), 0u) << link->name();
    EXPECT_FALSE(link->busy()) << link->name();
    EXPECT_EQ(link->counter().sent,
              link->counter().delivered + link->counter().dropped)
        << link->name();
    link_drops += link->counter().dropped;
  }

  // Per-switch: packets in (injected here + delivered by incoming links)
  // match packets out (forwarded, i.e. offered to some port) + routeless
  // drops, and forwarding tallies with the ports' own send counters.
  std::uint64_t switch_drops = 0;
  for (SwitchId s = 0; s < spec.total_switches(); ++s) {
    std::uint64_t in = injected_at[s];
    for (const Link* link : in_links[s]) in += link->counter().delivered;
    const auto& c = net.switches[s]->counter();
    EXPECT_EQ(in, c.sent + c.dropped) << net.switches[s]->name();
    std::uint64_t out_offers = 0;
    for (std::uint32_t p = 0; p < net.switches[s]->port_count(); ++p) {
      out_offers += net.switches[s]->port(p)->counter().sent;
    }
    EXPECT_EQ(c.sent, out_offers) << net.switches[s]->name();
    switch_drops += c.dropped;
  }
  EXPECT_EQ(switch_drops, 0u) << "full FIBs must route every host";

  // End to end: injected packets either reached a host NIC or were
  // dropped at a queue. The victim's ToR saw a >= 2:1 fan-in whenever the
  // shape has at least two remote ToRs, so drops must have occurred.
  std::uint64_t host_deliveries = 0;
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    host_deliveries += net.host_downlinks[h]->counter().delivered;
  }
  EXPECT_EQ(injected, host_deliveries + link_drops);
  if (spec.total_tors() >= 3) {
    EXPECT_GT(link_drops, 0u)
        << "convergent burst should overflow the victim downlink";
  }
}

// ECMP invariants: the hash stays in range and covers every equal-cost
// choice, forward/reverse paths of a flow are structurally symmetric, and
// walking the built network's FIBs hop by hop replays compute_path
// exactly — on a freshly rebuilt network too (rebuild determinism).
TEST_P(ClosShapeProperty, EcmpPathSymmetryAndFibReplay) {
  const auto spec = to_spec(GetParam());

  // Range + coverage: over many flows, every index in [0, n) is chosen.
  sim::Rng rng{GetParam().aggs * 977 + GetParam().cores};
  for (std::uint32_t n : {1u, 2u, 3u, 5u, 8u}) {
    std::set<std::uint32_t> seen;
    for (int trial = 0; trial < 400; ++trial) {
      FlowKey flow;
      flow.src_host = static_cast<HostId>(rng.uniform_int(1 << 16));
      flow.dst_host = static_cast<HostId>(rng.uniform_int(1 << 16));
      flow.src_port = static_cast<std::uint16_t>(rng.uniform_int(50'000));
      flow.dst_port = 80;
      const std::uint32_t idx = ecmp_index(flow, /*deciding_switch=*/3, n);
      ASSERT_LT(idx, n);
      seen.insert(idx);
    }
    EXPECT_EQ(seen.size(), n) << "ECMP must use all " << n << " choices";
  }

  // Two identically-specced networks for the FIB walk: FIB construction
  // must be a pure function of the spec, not of build order or RNG state.
  sim::Simulator sim_a{21}, sim_b{22};
  core::NetworkConfig cfg;
  cfg.spec = spec;
  auto net_a = core::build_full_network(sim_a, cfg);
  auto net_b = core::build_full_network(sim_b, cfg);

  std::map<std::string, SwitchId> switch_by_name;
  for (SwitchId s = 0; s < spec.total_switches(); ++s) {
    switch_by_name[net_a.switches[s]->name()] = s;
  }
  // Follows route_port decisions from the source ToR until the packet
  // would leave the fabric, returning the switch sequence.
  auto walk = [&](const core::BuiltNetwork& net, const FlowKey& flow) {
    std::vector<SwitchId> hops;
    SwitchId cur = spec.tor_of_host(flow.src_host);
    while (true) {
      hops.push_back(cur);
      const Switch* sw = net.switches[cur];
      const Link* out = sw->port(sw->route_port(flow));
      const auto it = switch_by_name.find(link_dst_name(out));
      if (it == switch_by_name.end()) {  // delivered to a host NIC
        EXPECT_EQ(link_dst_name(out), spec.host_name(flow.dst_host));
        return hops;
      }
      cur = it->second;
      EXPECT_LE(hops.size(), 5u) << "forwarding loop";
    }
  };

  sim::Rng flows{GetParam().clusters * 311 + GetParam().hosts_per_tor};
  for (int trial = 0; trial < 100; ++trial) {
    FlowKey flow;
    flow.src_host =
        static_cast<HostId>(flows.uniform_int(spec.total_hosts()));
    do {
      flow.dst_host =
          static_cast<HostId>(flows.uniform_int(spec.total_hosts()));
    } while (flow.dst_host == flow.src_host);
    flow.src_port = static_cast<std::uint16_t>(flows.uniform_int(50'000));
    flow.dst_port = 80;

    // The built FIBs replay compute_path hop for hop, on both builds.
    const ClosPath path = compute_path(spec, flow);
    const auto hops_a = walk(net_a, flow);
    const auto hops_b = walk(net_b, flow);
    ASSERT_EQ(hops_a.size(), path.len);
    for (std::uint32_t i = 0; i < path.len; ++i) {
      EXPECT_EQ(hops_a[i], path.hops[i]);
    }
    EXPECT_EQ(hops_a, hops_b) << "rebuild changed forwarding";

    // Structural symmetry: the reverse flow takes a path of the same
    // shape through mirrored layers — same length, endpoint ToRs
    // swapped, and (for inter-cluster paths) agg hops in the clusters of
    // the forward path's far/near aggs. The *chosen* agg/core may differ
    // (the ECMP hash is directional); the layer structure may not.
    const ClosPath rev = compute_path(spec, flow.reversed());
    ASSERT_EQ(rev.len, path.len);
    EXPECT_EQ(rev.hops[0], path.hops[path.len - 1]);
    EXPECT_EQ(rev.hops[rev.len - 1], path.hops[0]);
    if (path.len == 5) {
      EXPECT_EQ(spec.cluster_of_switch(rev.hops[1]),
                spec.cluster_of_switch(path.hops[3]));
      EXPECT_EQ(spec.cluster_of_switch(rev.hops[3]),
                spec.cluster_of_switch(path.hops[1]));
      EXPECT_TRUE(spec.is_core(rev.hops[2]));
    } else if (path.len == 3) {
      EXPECT_EQ(spec.cluster_of_switch(rev.hops[1]),
                spec.cluster_of_switch(path.hops[1]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClosShapeProperty,
    ::testing::Values(Shape{2, 2, 2, 4, 2},     // the paper's unit
                      Shape{2, 1, 1, 2, 1},     // degenerate minimum
                      Shape{3, 2, 3, 2, 2},     // asymmetric agg layer
                      Shape{4, 4, 2, 2, 4},     // wide ToR layer
                      Shape{8, 2, 2, 4, 2},     // many clusters
                      Shape{1, 4, 4, 4, 0},     // leaf-spine
                      Shape{1, 8, 3, 2, 0},     // narrow spine
                      Shape{2, 3, 2, 5, 3}),    // odd sizes everywhere
    [](const ::testing::TestParamInfo<Shape>& info) {
      const auto& s = info.param;
      return "c" + std::to_string(s.clusters) + "t" + std::to_string(s.tors) +
             "a" + std::to_string(s.aggs) + "h" +
             std::to_string(s.hosts_per_tor) + "k" + std::to_string(s.cores);
    });

}  // namespace
}  // namespace esim::net
