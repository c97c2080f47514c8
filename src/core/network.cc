#include "core/network.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace esim::core {

using net::ClosSpec;
using net::HostId;
using net::Link;
using net::Switch;
using net::SwitchId;

std::vector<const CoreAttachment*> BuiltNetwork::attachments_of(
    std::uint32_t cluster) const {
  std::vector<const CoreAttachment*> out;
  for (const auto& a : core_links) {
    if (a.cluster == cluster) out.push_back(&a);
  }
  return out;
}

namespace {

/// The approximated clusters of a hybrid build — every cluster but
/// kFullCluster — and the models each ApproxCluster copies.
struct Approximation {
  const HybridConfig& config;
  const approx::MicroModel& ingress;
  const approx::MicroModel& egress;
};

/// Throws std::invalid_argument (prefixed with `who`) unless the build is
/// well formed: a valid spec; for hybrids, >= 2 clusters and one link rate
/// (an ApproxCluster emulates every port at the fabric's); under an
/// engine, a lookahead no longer than any link's propagation and, for
/// hybrids, than the model's latency floor.
void check_build(const std::string& who, const NetworkConfig& config,
                 const Approximation* approx,
                 const sim::ParallelEngine* engine) {
  const ClosSpec& spec = config.spec;
  spec.validate();
  const auto fail = [&who](const std::string& what) {
    throw std::invalid_argument(who + ": " + what);
  };
  if (approx != nullptr && spec.clusters < 2) {
    fail("need >= 2 clusters (one stays full)");
  }
  const double core_bps = config.core_link_config().bandwidth_bps;
  const double fabric_bps = config.fabric_link.bandwidth_bps;
  if (approx != nullptr && core_bps != fabric_bps) {
    std::ostringstream msg;
    msg << "core_link rate " << core_bps / 1e9
        << " Gb/s differs from fabric_link rate " << fabric_bps / 1e9
        << " Gb/s (an ApproxCluster models one port rate)";
    fail(msg.str());
  }
  if (engine == nullptr) return;
  const sim::SimTime lookahead = engine->lookahead();
  if (lookahead > config.host_uplink.propagation ||
      lookahead > config.fabric_link.propagation ||
      lookahead > config.core_link_config().propagation) {
    fail("engine lookahead exceeds link propagation (causality would break)");
  }
  if (approx == nullptr) return;
  const ApproxCluster::Config& model = approx->config.approx;
  if (lookahead.to_seconds() > model.min_latency_s) {
    fail(
        "lookahead exceeds the model's minimum latency (egress deliveries "
        "would violate causality)");
  }
}

std::string link_name(const std::string& a, const std::string& b) {
  return a + "->" + b;
}

/// The one wiring routine. `sims` holds one simulator per partition
/// (`engine` is null for a lone Simulator). The placement gives the
/// partition of every switch (dense by SwitchId; hosts ride with their
/// ToR) and of every ApproxCluster (dense by cluster index); `approx`
/// (null for all-packet builds) names the clusters that become
/// ApproxClusters. The caller has run check_build.
PartitionedNetwork wire(const std::vector<sim::Simulator*>& sims,
                        sim::ParallelEngine* engine,
                        const NetworkConfig& config,
                        std::vector<std::uint32_t> partition_of_switch,
                        std::vector<std::uint32_t> partition_of_cluster,
                        const Approximation* approx) {
  const ClosSpec& spec = config.spec;
  const auto P = static_cast<std::uint32_t>(sims.size());
  const auto approximated = [approx](std::uint32_t c) {
    return approx != nullptr && c != kFullCluster;
  };

  PartitionedNetwork out;
  out.partition_of_switch = std::move(partition_of_switch);
  out.partition_of_cluster = std::move(partition_of_cluster);
  const auto& switch_part = out.partition_of_switch;
  const auto& cluster_part = out.partition_of_cluster;
  BuiltNetwork& net = out.net;
  net.spec = spec;
  net.hosts.resize(spec.total_hosts());
  net.switches.assign(spec.total_switches(), nullptr);
  net.clusters.assign(spec.clusters, nullptr);
  net.host_uplinks.resize(spec.total_hosts());
  net.host_downlinks.assign(spec.total_hosts(), nullptr);
  out.partition_of_host.resize(spec.total_hosts());

  // --- components, in the canonical order (see network.h) ---
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    const std::uint32_t c = spec.cluster_of_host(h);
    const std::uint32_t p = approximated(c) ? cluster_part[c]
                                            : switch_part[spec.tor_of_host(h)];
    out.partition_of_host[h] = p;
    net.hosts[h] =
        sims[p]->add_component<tcp::Host>(spec.host_name(h), h, config.tcp);
  }
  const auto add_switch = [&](SwitchId id, std::string name) {
    Switch* sw =
        sims[switch_part[id]]->add_component<Switch>(std::move(name), id);
    sw->set_port_sensitive_ecmp(config.ecmp_port_sensitive);
    net.switches[id] = sw;
  };
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    if (approximated(c)) continue;
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      add_switch(spec.tor_id(c, t), spec.tor_name(c, t));
    }
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      add_switch(spec.agg_id(c, a), spec.agg_name(c, a));
    }
  }
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    add_switch(spec.core_id(k), spec.core_name(k));
  }
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    if (!approximated(c)) continue;
    ApproxCluster::Config acfg = approx->config.approx;
    acfg.spec = spec;
    acfg.cluster = c;
    acfg.port_bandwidth_bps = config.fabric_link.bandwidth_bps;
    net.clusters[c] = sims[cluster_part[c]]->add_component<ApproxCluster>(
        "approx.c" + std::to_string(c), acfg, approx->ingress, approx->egress);
  }

  // --- links & ports ---
  // Minimum delay of each (from, to) partition pair's channels; feeds the
  // engine's per-pair lookahead matrix.
  constexpr std::int64_t kNoChannel = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> min_pair_ns(static_cast<std::size_t>(P) * P,
                                        kNoChannel);
  const auto channel = [&](std::uint32_t from, std::uint32_t to,
                           sim::SimTime delay) {
    std::int64_t& slot = min_pair_ns[static_cast<std::size_t>(from) * P + to];
    slot = std::min(slot, delay.ns());
  };
  const auto cross = [engine](std::uint32_t from, std::uint32_t to) {
    return [engine, from, to](sim::SimTime at, std::uint64_t key,
                              sim::EventFn&& fn) {
      engine->send_cross(from, to, at, key, std::move(fn));
    };
  };
  // A link lives in its sender's partition `from`; `to` is the receiver's.
  const auto make_link = [&](std::uint32_t from, std::uint32_t to,
                             std::string name, const Link::Config& lcfg,
                             net::PacketHandler* dst) {
    Link* link = sims[from]->add_component<Link>(std::move(name), lcfg, dst);
    if (from != to) {
      link->set_remote_scheduler(cross(from, to));
      ++out.cross_partition_links;
      channel(from, to, lcfg.propagation);
    }
    return link;
  };

  // Port index bookkeeping: (switch id, neighbor key) -> port. FIB
  // candidate ordering relies on the insertion order below being
  // canonical (hosts by id, aggs by index, cores by index, clusters by
  // index).
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> port_of(
      spec.total_switches());
  constexpr std::uint64_t kHostKey = 1ULL << 40;
  constexpr std::uint64_t kSwitchKey = 2ULL << 40;
  constexpr std::uint64_t kClusterKey = 3ULL << 40;

  // Host <-> ToR, or host -> ApproxCluster (always partition-local).
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    const std::uint32_t c = spec.cluster_of_host(h);
    const std::uint32_t p = out.partition_of_host[h];
    tcp::Host* host = net.hosts[h];
    if (approximated(c)) {
      ApproxCluster* cluster = net.clusters[c];
      net.host_uplinks[h] =
          make_link(p, p, link_name(host->name(), cluster->name()),
                    config.host_uplink, cluster);
      cluster->attach_host(h, host);
    } else {
      const SwitchId tor = spec.tor_of_host(h);
      Switch* tor_sw = net.switches[tor];
      net.host_uplinks[h] =
          make_link(p, p, link_name(host->name(), tor_sw->name()),
                    config.host_uplink, tor_sw);
      net.host_downlinks[h] =
          make_link(p, p, link_name(tor_sw->name(), host->name()),
                    config.fabric_link, host);
      port_of[tor][kHostKey | h] = tor_sw->add_port(net.host_downlinks[h]);
    }
    host->set_uplink(net.host_uplinks[h]);
  }

  // ToR <-> Agg (every ToR to every Agg of its cluster, aggs ascending).
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    if (approximated(c)) continue;
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      const SwitchId tor = spec.tor_id(c, t);
      Switch* tor_sw = net.switches[tor];
      for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
        const SwitchId agg = spec.agg_id(c, a);
        Switch* agg_sw = net.switches[agg];
        Link* up = make_link(switch_part[tor], switch_part[agg],
                             link_name(tor_sw->name(), agg_sw->name()),
                             config.fabric_link, agg_sw);
        Link* down = make_link(switch_part[agg], switch_part[tor],
                               link_name(agg_sw->name(), tor_sw->name()),
                               config.fabric_link, tor_sw);
        port_of[tor][kSwitchKey | agg] = tor_sw->add_port(up);
        port_of[agg][kSwitchKey | tor] = agg_sw->add_port(down);
        net.intra_fabric_links.emplace_back(c, up);
        net.intra_fabric_links.emplace_back(c, down);
      }
    }
  }

  // Agg <-> Core (every Agg to every Core, cores ascending; core ports
  // are added cluster-major then agg-major, giving the canonical
  // ascending-agg order within each cluster).
  const Link::Config& core_cfg = config.core_link_config();
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    if (approximated(c)) continue;
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      const SwitchId agg = spec.agg_id(c, a);
      Switch* agg_sw = net.switches[agg];
      for (std::uint32_t k = 0; k < spec.cores; ++k) {
        const SwitchId core = spec.core_id(k);
        Switch* core_sw = net.switches[core];
        Link* up = make_link(switch_part[agg], switch_part[core],
                             link_name(agg_sw->name(), core_sw->name()),
                             core_cfg, core_sw);
        Link* down = make_link(switch_part[core], switch_part[agg],
                               link_name(core_sw->name(), agg_sw->name()),
                               core_cfg, agg_sw);
        port_of[agg][kSwitchKey | core] = agg_sw->add_port(up);
        port_of[core][kSwitchKey | agg] = core_sw->add_port(down);
        net.core_links.push_back(CoreAttachment{c, a, k, up, down});
      }
    }
  }

  // Core -> ApproxCluster links; egress deliveries go back to the cores
  // directly. An egress injection granted at t_d is reserved at arrival t
  // with t_d >= t + min_latency_s, so min_latency_s is the provable send
  // horizon (check_build makes it cover the engine lookahead).
  sim::SimTime egress_horizon;
  if (approx != nullptr) {
    egress_horizon =
        sim::SimTime::from_seconds_f(approx->config.approx.min_latency_s);
    if (engine != nullptr) {
      egress_horizon = std::max(egress_horizon, engine->lookahead());
    }
  }
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    const SwitchId core = spec.core_id(k);
    Switch* core_sw = net.switches[core];
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      if (!approximated(c)) continue;
      ApproxCluster* cluster = net.clusters[c];
      Link* down = make_link(switch_part[core], cluster_part[c],
                             link_name(core_sw->name(), cluster->name()),
                             core_cfg, cluster);
      port_of[core][kClusterKey | c] = core_sw->add_port(down);
      cluster->attach_core(k, core_sw);
      if (cluster_part[c] != switch_part[core]) {
        cluster->set_core_remote(k, cross(cluster_part[c], switch_part[core]));
        channel(cluster_part[c], switch_part[core], egress_horizon);
      }
    }
  }

  // --- per-pair lookahead ---
  // Connected pairs are bounded by their fastest channel; unconnected
  // pairs never exchange messages, so they do not constrain the window
  // at all — and any send over them is rejected.
  if (engine != nullptr) {
    for (std::uint32_t a = 0; a < P; ++a) {
      for (std::uint32_t b = 0; b < P; ++b) {
        if (a == b) continue;
        const std::int64_t ns =
            min_pair_ns[static_cast<std::size_t>(a) * P + b];
        engine->set_pair_lookahead(
            a, b,
            ns == kNoChannel ? sim::ParallelEngine::infinite_lookahead()
                             : sim::SimTime::from_ns(ns));
      }
    }
  }

  // --- FIBs ---
  for (HostId dst = 0; dst < spec.total_hosts(); ++dst) {
    const std::uint32_t dst_cluster = spec.cluster_of_host(dst);
    const SwitchId dst_tor = spec.tor_of_host(dst);
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      if (approximated(c)) continue;
      // ToRs: down to the host, else ECMP up across the cluster's aggs.
      for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
        const SwitchId tor = spec.tor_id(c, t);
        std::vector<std::uint32_t> ports;
        if (tor == dst_tor) {
          ports.push_back(port_of[tor].at(kHostKey | dst));
        } else {
          for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
            ports.push_back(port_of[tor].at(kSwitchKey | spec.agg_id(c, a)));
          }
        }
        net.switches[tor]->set_route(dst, std::move(ports));
      }
      // Aggs: down to the destination ToR, else ECMP up across cores.
      for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
        const SwitchId agg = spec.agg_id(c, a);
        std::vector<std::uint32_t> ports;
        if (c == dst_cluster) {
          ports.push_back(port_of[agg].at(kSwitchKey | dst_tor));
        } else {
          for (std::uint32_t k = 0; k < spec.cores; ++k) {
            ports.push_back(port_of[agg].at(kSwitchKey | spec.core_id(k)));
          }
        }
        net.switches[agg]->set_route(dst, std::move(ports));
      }
    }
    // Cores: ECMP across a packet cluster's aggs (ascending), or the one
    // link into an ApproxCluster.
    for (std::uint32_t k = 0; k < spec.cores; ++k) {
      const SwitchId core = spec.core_id(k);
      std::vector<std::uint32_t> ports;
      if (approximated(dst_cluster)) {
        ports.push_back(port_of[core].at(kClusterKey | dst_cluster));
      } else {
        for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
          ports.push_back(
              port_of[core].at(kSwitchKey | spec.agg_id(dst_cluster, a)));
        }
      }
      net.switches[core]->set_route(dst, std::move(ports));
    }
  }

  // Start the macro-state windows.
  for (ApproxCluster* cluster : net.clusters) {
    if (cluster != nullptr) cluster->start();
  }
  return out;
}

/// `n` components, all on partition 0.
std::vector<std::uint32_t> on_partition_zero(std::size_t n) {
  return std::vector<std::uint32_t>(n, 0);
}

std::vector<sim::Simulator*> partition_sims(sim::ParallelEngine& engine) {
  std::vector<sim::Simulator*> sims;
  for (std::uint32_t p = 0; p < engine.num_partitions(); ++p) {
    sims.push_back(&engine.partition(p).sim());
  }
  return sims;
}

}  // namespace

BuiltNetwork build_full_network(sim::Simulator& sim,
                                const NetworkConfig& config) {
  check_build("build_full_network", config, nullptr, nullptr);
  const ClosSpec& spec = config.spec;
  return wire({&sim}, nullptr, config,
              on_partition_zero(spec.total_switches()),
              on_partition_zero(spec.clusters), nullptr)
      .net;
}

PartitionedNetwork build_clos_partitioned(sim::ParallelEngine& engine,
                                          const NetworkConfig& config,
                                          PlacementPolicy policy) {
  check_build("build_clos_partitioned", config, nullptr, &engine);
  const ClosSpec& spec = config.spec;
  return wire(partition_sims(engine), &engine, config,
              make_partition_plan(spec, engine.num_partitions(), policy)
                  .partition_of_switch,
              on_partition_zero(spec.clusters), nullptr);
}

BuiltNetwork build_hybrid_network(sim::Simulator& sim,
                                  const HybridConfig& config,
                                  const approx::MicroModel& ingress_model,
                                  const approx::MicroModel& egress_model) {
  const Approximation approx{config, ingress_model, egress_model};
  check_build("build_hybrid_network", config.net, &approx, nullptr);
  const ClosSpec& spec = config.net.spec;
  return wire({&sim}, nullptr, config.net,
              on_partition_zero(spec.total_switches()),
              on_partition_zero(spec.clusters), &approx)
      .net;
}

PartitionedNetwork build_hybrid_network_partitioned(
    sim::ParallelEngine& engine, const HybridConfig& config,
    const approx::MicroModel& ingress_model,
    const approx::MicroModel& egress_model) {
  const Approximation approx{config, ingress_model, egress_model};
  check_build("build_hybrid_network_partitioned", config.net, &approx,
              &engine);
  const ClosSpec& spec = config.net.spec;
  std::vector<std::uint32_t> partition_of_cluster =
      on_partition_zero(spec.clusters);
  // The packet cluster and the cores stay on partition 0; approximated
  // clusters spread weight-balanced (by host count) over 1..P-1. They
  // have no links to each other, so balance — not cut — is the only
  // objective.
  const std::uint32_t P = engine.num_partitions();
  if (P > 1) {
    std::vector<std::uint32_t> islands;
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      if (c != kFullCluster) islands.push_back(c);
    }
    const auto bins = assign_balanced(
        std::vector<std::uint64_t>(islands.size(), spec.hosts_per_cluster()),
        P - 1);
    for (std::size_t i = 0; i < islands.size(); ++i) {
      partition_of_cluster[islands[i]] = 1 + bins[i];
    }
  }
  return wire(partition_sims(engine), &engine, config.net,
              on_partition_zero(spec.total_switches()),
              std::move(partition_of_cluster), &approx);
}

}  // namespace esim::core
