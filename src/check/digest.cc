#include "check/digest.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "net/switch.h"
#include "tcp/host.h"

namespace esim::check {
namespace {

std::uint64_t name_hash(const std::string& name) {
  Hash64 h;
  for (unsigned char c : name) h.absorb(c);
  return h.value();
}

std::uint8_t pack_flags(const net::Packet& pkt) {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(pkt.flags) |
                                   (pkt.ecn ? 1u << 3 : 0u) |
                                   (pkt.ece ? 1u << 4 : 0u));
}

}  // namespace

PacketRecord make_packet_record(const net::Packet& pkt, std::int64_t time_ns,
                                bool dropped) {
  PacketRecord r;
  r.time_ns = time_ns;
  r.packet_id = pkt.id;
  r.src_host = pkt.flow.src_host;
  r.dst_host = pkt.flow.dst_host;
  r.src_port = pkt.flow.src_port;
  r.dst_port = pkt.flow.dst_port;
  r.flow_id = pkt.flow_id;
  r.seq = pkt.seq;
  r.ack_seq = pkt.ack_seq;
  r.payload = pkt.payload;
  r.flags = pack_flags(pkt);
  r.dropped = dropped;
  return r;
}

std::uint64_t final_state_fingerprint(
    const std::vector<const sim::Simulator*>& sims) {
  std::vector<const sim::Component*> components;
  for (const sim::Simulator* sim : sims) {
    for (const auto& c : sim->components()) components.push_back(c.get());
  }
  std::sort(components.begin(), components.end(),
            [](const sim::Component* a, const sim::Component* b) {
              return a->name() < b->name();
            });
  Hash64 fin;
  for (const sim::Component* c : components) {
    if (const auto* link = dynamic_cast<const net::Link*>(c)) {
      fin.absorb(name_hash(link->name()));
      fin.absorb(link->counter().sent);
      fin.absorb(link->counter().delivered);
      fin.absorb(link->counter().dropped);
      fin.absorb(link->queued_bytes());
      fin.absorb(link->queued_packets());
      fin.absorb(link->busy() ? 1 : 0);
    } else if (const auto* sw = dynamic_cast<const net::Switch*>(c)) {
      fin.absorb(name_hash(sw->name()));
      fin.absorb(sw->counter().sent);
      fin.absorb(sw->counter().delivered);
      fin.absorb(sw->counter().dropped);
    } else if (const auto* host = dynamic_cast<const tcp::Host*>(c)) {
      fin.absorb(name_hash(host->name()));
      fin.absorb(host->counter().sent);
      fin.absorb(host->counter().delivered);
      fin.absorb(host->counter().dropped);
    }
  }
  return fin.value();
}

std::string Digest::to_string() const {
  std::ostringstream os;
  os << std::hex << "order=" << order_lane << " packet=" << packet_lane
     << " flow=" << flow_lane << " final=" << final_lane
     << " tier=" << tier_lane << std::dec << " (events=" << events
     << " packets=" << packets << " drops=" << drops << " flows=" << flows
     << " transitions=" << transitions << ")";
  return os.str();
}

std::uint64_t corpus_fingerprint(const std::vector<Digest>& digests) {
  Hash64 h;
  for (const Digest& d : digests) {
    for (const std::uint64_t v :
         {d.order_lane, d.packet_lane, d.flow_lane, d.final_lane, d.tier_lane,
          d.events, d.packets, d.drops, d.flows, d.transitions}) {
      h.absorb(v);
    }
  }
  return h.value();
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << fingerprint;
  return os.str();
}

std::uint64_t PacketRecord::hash() const {
  Hash64 h;
  h.absorb(static_cast<std::uint64_t>(time_ns));
  h.absorb(packet_id);
  h.absorb((static_cast<std::uint64_t>(src_host) << 32) | dst_host);
  h.absorb((static_cast<std::uint64_t>(src_port) << 16) | dst_port);
  h.absorb(flow_id);
  h.absorb((static_cast<std::uint64_t>(seq) << 32) | ack_seq);
  h.absorb((static_cast<std::uint64_t>(payload) << 8) | flags);
  h.absorb(dropped ? 1 : 0);
  return h.value();
}

std::string PacketRecord::to_string() const {
  std::ostringstream os;
  os << "t=" << time_ns << "ns pkt#" << packet_id << " flow " << flow_id
     << " " << src_host << ":" << src_port << "->" << dst_host << ":"
     << dst_port << " seq=" << seq << " ack=" << ack_seq
     << " payload=" << payload << " flags=0x" << std::hex
     << static_cast<unsigned>(flags) << std::dec
     << (dropped ? " DROPPED" : "");
  return os.str();
}

void StateDigest::LinkProbe::record(const PacketRecord& r, bool keep,
                                    std::size_t max_records,
                                    std::atomic<std::size_t>& kept_total) {
  chain.absorb(r.hash());
  if (r.dropped) {
    ++drops;
  } else {
    ++packets;
  }
  if (keep &&
      kept_total.fetch_add(1, std::memory_order_relaxed) < max_records) {
    capture.push_back(r);
  }
}

void StateDigest::enable_capture(std::size_t max_records) {
  capture_ = true;
  max_records_ = max_records;
}

void StateDigest::attach(sim::Simulator& sim) {
  auto lane =
      std::make_unique<EventLane>(static_cast<std::uint32_t>(lanes_.size()));
  sim.set_pop_observer(lane.get());
  lanes_.push_back(std::move(lane));
  observe_links(sim);
}

void StateDigest::attach(sim::ParallelEngine& engine) {
  for (std::uint32_t p = 0; p < engine.num_partitions(); ++p) {
    attach(engine.partition(p).sim());
  }
}

void StateDigest::observe_links(sim::Simulator& sim) {
  if (std::find(sims_.begin(), sims_.end(), &sim) == sims_.end()) {
    sims_.push_back(&sim);
  }
  for (const auto& component : sim.components()) {
    auto* link = dynamic_cast<net::Link*>(component.get());
    if (link == nullptr) continue;
    auto probe = std::make_unique<LinkProbe>();
    probe->link = link;
    LinkProbe* p = probe.get();
    const bool keep = capture_;
    const std::size_t cap = max_records_;
    auto* total = &captured_total_;
    link->on_transmit = [p, keep, cap, total](const net::Packet& pkt,
                                              sim::SimTime arrive_at) {
      p->record(make_packet_record(pkt, arrive_at.ns(), /*dropped=*/false),
                keep, cap, *total);
    };
    link->on_drop = [p, keep, cap, total, link](const net::Packet& pkt) {
      p->record(make_packet_record(pkt, link->now().ns(), /*dropped=*/true),
                keep, cap, *total);
    };
    probes_.push_back(std::move(probe));
  }
}

void StateDigest::on_flow_complete(std::uint64_t flow_id, std::uint32_t src,
                                   std::uint32_t dst, std::uint64_t bytes,
                                   sim::SimTime start, sim::SimTime end) {
  Hash64 h;
  h.absorb(flow_id);
  h.absorb((static_cast<std::uint64_t>(src) << 32) | dst);
  h.absorb(bytes);
  h.absorb(static_cast<std::uint64_t>(start.ns()));
  h.absorb(static_cast<std::uint64_t>(end.ns()));
  flow_lane_.fetch_add(h.value(), std::memory_order_relaxed);
  flows_.fetch_add(1, std::memory_order_relaxed);
}

void StateDigest::on_tier_transition(std::uint32_t cluster,
                                     std::int64_t t_ns, std::uint8_t from,
                                     std::uint8_t to) {
  Hash64& chain = tier_chains_[cluster];
  chain.absorb(static_cast<std::uint64_t>(t_ns));
  chain.absorb((static_cast<std::uint64_t>(from) << 8) | to);
  ++transitions_;
}

Digest StateDigest::finalize() const {
  Digest d;

  // Order lane: commutative over partitions (each partition's chain is
  // order-sensitive); comparable only between identical engine configs.
  for (const auto& lane : lanes_) {
    Hash64 h;
    h.absorb(lane->key());
    h.absorb(lane->value());
    h.absorb(lane->events());
    d.order_lane += h.value();
    d.events += lane->events();
  }

  // Packet lane: commutative across links, keyed by name so placement
  // (which partition built the link) cannot matter.
  for (const auto& probe : probes_) {
    Hash64 h;
    h.absorb(name_hash(probe->link->name()));
    h.absorb(probe->chain.value());
    h.absorb(probe->packets);
    h.absorb(probe->drops);
    d.packet_lane += h.value();
    d.packets += probe->packets;
    d.drops += probe->drops;
  }

  d.flow_lane = flow_lane_.load(std::memory_order_relaxed);
  d.flows = flows_.load(std::memory_order_relaxed);

  // Tier lane: commutative across clusters (chains are order-sensitive
  // within one cluster), keyed by cluster index so partition placement
  // cannot matter.
  for (const auto& [cluster, chain] : tier_chains_) {
    Hash64 h;
    h.absorb(cluster);
    h.absorb(chain.value());
    d.tier_lane += h.value();
  }
  d.transitions = transitions_;

  // Final lane: every component's counters and residual queue state, in
  // canonical name order across all attached simulators.
  std::vector<const sim::Simulator*> sims(sims_.begin(), sims_.end());
  d.final_lane = final_state_fingerprint(sims);
  return d;
}

void StateDigest::replay_link_record(std::size_t probe,
                                     const PacketRecord& r) {
  probes_.at(probe)->record(r, capture_, max_records_, captured_total_);
}

std::map<std::string, std::vector<PacketRecord>> StateDigest::captured()
    const {
  std::map<std::string, std::vector<PacketRecord>> out;
  for (const auto& probe : probes_) {
    if (!probe->capture.empty()) {
      out.emplace(probe->link->name(), probe->capture);
    }
  }
  return out;
}

}  // namespace esim::check
