#include "core/pdes_builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace esim::core {

using net::ClosSpec;
using net::HostId;
using net::Link;
using net::Switch;
using net::SwitchId;

PdesNetwork build_clos_partitioned(sim::ParallelEngine& engine,
                                   const NetworkConfig& config,
                                   PlacementPolicy policy) {
  const ClosSpec& spec = config.spec;
  spec.validate();
  if (engine.lookahead() > config.fabric_link.propagation ||
      engine.lookahead() > config.host_uplink.propagation ||
      engine.lookahead() > config.core_link_config().propagation) {
    throw std::invalid_argument(
        "build_clos_partitioned: engine lookahead exceeds link "
        "propagation (causality would break)");
  }
  const std::uint32_t P = engine.num_partitions();

  PdesNetwork out;
  out.spec = spec;
  out.plan = make_partition_plan(spec, P, policy);
  out.hosts.resize(spec.total_hosts());
  out.switches.resize(spec.total_switches());
  out.partition_of_switch = out.plan.partition_of_switch;
  out.partition_of_host.resize(spec.total_hosts());
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    out.partition_of_host[h] = out.plan.partition_of_host(spec, h);
  }

  // --- components, each inside its partition's simulator ---
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    auto& psim = engine.partition(out.partition_of_host[h]).sim();
    out.hosts[h] =
        psim.add_component<tcp::Host>(spec.host_name(h), h, config.tcp);
  }
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      const SwitchId id = spec.tor_id(c, t);
      auto& psim = engine.partition(out.partition_of_switch[id]).sim();
      out.switches[id] = psim.add_component<Switch>(
          spec.tor_name(c, t), id, config.switch_processing);
    }
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      const SwitchId id = spec.agg_id(c, a);
      auto& psim = engine.partition(out.partition_of_switch[id]).sim();
      out.switches[id] = psim.add_component<Switch>(
          spec.agg_name(c, a), id, config.switch_processing);
    }
  }
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    const SwitchId id = spec.core_id(k);
    auto& psim = engine.partition(out.partition_of_switch[id]).sim();
    out.switches[id] = psim.add_component<Switch>(spec.core_name(k), id,
                                                  config.switch_processing);
  }
  if (!config.ecmp_port_sensitive) {
    for (auto* sw : out.switches) sw->set_port_sensitive_ecmp(false);
  }

  // --- links & ports ---
  // Minimum propagation delay over the cross links of each (from, to)
  // partition pair; feeds the engine's per-pair lookahead matrix.
  constexpr std::int64_t kNoChannel = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> min_pair_ns(static_cast<std::size_t>(P) * P,
                                        kNoChannel);

  auto make_link = [&](std::uint32_t owner_partition, const std::string& name,
                       const Link::Config& lcfg, net::PacketHandler* dst,
                       std::uint32_t dst_partition) {
    auto& psim = engine.partition(owner_partition).sim();
    Link* link = psim.add_component<Link>(name, lcfg, dst);
    if (owner_partition != dst_partition) {
      link->set_remote_scheduler(
          [&engine, owner_partition, dst_partition](
              sim::SimTime at, std::uint64_t key, sim::EventFn&& fn) {
            engine.send_cross(owner_partition, dst_partition, at, key,
                              std::move(fn));
          });
      ++out.cross_partition_links;
      std::int64_t& slot =
          min_pair_ns[static_cast<std::size_t>(owner_partition) * P +
                      dst_partition];
      slot = std::min(slot, lcfg.propagation.ns());
    }
    return link;
  };

  // Port index bookkeeping identical to core/full_builder: FIB candidate
  // ordering relies on the insertion order below being canonical.
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> port_of(
      spec.total_switches());
  constexpr std::uint64_t kHostKey = 1ULL << 40;
  constexpr std::uint64_t kSwitchKey = 2ULL << 40;

  auto link_name = [](const std::string& a, const std::string& b) {
    return a + "->" + b;
  };

  // Host <-> ToR (always partition-local: hosts ride with their ToR).
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    const SwitchId tor = spec.tor_of_host(h);
    const std::uint32_t p = out.partition_of_host[h];
    Switch* tor_sw = out.switches[tor];
    tcp::Host* host = out.hosts[h];
    Link* up = make_link(p, link_name(host->name(), tor_sw->name()),
                         config.host_uplink, tor_sw, p);
    Link* down = make_link(p, link_name(tor_sw->name(), host->name()),
                           config.fabric_link, host, p);
    host->set_uplink(up);
    port_of[tor][kHostKey | h] = tor_sw->add_port(down);
  }

  // ToR <-> Agg (every ToR to every Agg of its cluster, aggs ascending).
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      const SwitchId tor = spec.tor_id(c, t);
      Switch* tor_sw = out.switches[tor];
      const std::uint32_t pt = out.partition_of_switch[tor];
      for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
        const SwitchId agg = spec.agg_id(c, a);
        Switch* agg_sw = out.switches[agg];
        const std::uint32_t pa = out.partition_of_switch[agg];
        Link* up = make_link(pt, link_name(tor_sw->name(), agg_sw->name()),
                             config.fabric_link, agg_sw, pa);
        Link* down = make_link(pa, link_name(agg_sw->name(), tor_sw->name()),
                               config.fabric_link, tor_sw, pt);
        port_of[tor][kSwitchKey | agg] = tor_sw->add_port(up);
        port_of[agg][kSwitchKey | tor] = agg_sw->add_port(down);
      }
    }
  }

  // Agg <-> Core (every Agg to every Core, cores ascending).
  const Link::Config& core_cfg = config.core_link_config();
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      const SwitchId agg = spec.agg_id(c, a);
      Switch* agg_sw = out.switches[agg];
      const std::uint32_t pa = out.partition_of_switch[agg];
      for (std::uint32_t k = 0; k < spec.cores; ++k) {
        const SwitchId core = spec.core_id(k);
        Switch* core_sw = out.switches[core];
        const std::uint32_t pk = out.partition_of_switch[core];
        Link* up = make_link(pa, link_name(agg_sw->name(), core_sw->name()),
                             core_cfg, core_sw, pk);
        Link* down = make_link(pk, link_name(core_sw->name(), agg_sw->name()),
                               core_cfg, agg_sw, pa);
        port_of[agg][kSwitchKey | core] = agg_sw->add_port(up);
        port_of[core][kSwitchKey | agg] = core_sw->add_port(down);
      }
    }
  }

  // --- per-pair lookahead ---
  // Connected pairs are bounded by their fastest link; unconnected pairs
  // never exchange messages, so they do not constrain the window at all.
  for (std::uint32_t a = 0; a < P; ++a) {
    for (std::uint32_t b = 0; b < P; ++b) {
      if (a == b) continue;
      const std::int64_t ns = min_pair_ns[static_cast<std::size_t>(a) * P + b];
      engine.set_pair_lookahead(
          a, b,
          ns == kNoChannel ? sim::ParallelEngine::infinite_lookahead()
                           : sim::SimTime::from_ns(ns));
    }
  }

  // --- FIBs (identical candidate ordering to core/full_builder) ---
  for (HostId dst = 0; dst < spec.total_hosts(); ++dst) {
    const std::uint32_t dst_cluster = spec.cluster_of_host(dst);
    const SwitchId dst_tor = spec.tor_of_host(dst);

    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
        Switch* tor_sw = out.switches[spec.tor_id(c, t)];
        if (tor_sw->id() == dst_tor) {
          tor_sw->set_route(dst, {port_of[tor_sw->id()].at(kHostKey | dst)});
        } else {
          std::vector<std::uint32_t> ups;
          for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
            ups.push_back(
                port_of[tor_sw->id()].at(kSwitchKey | spec.agg_id(c, a)));
          }
          tor_sw->set_route(dst, std::move(ups));
        }
      }
    }

    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
        Switch* agg_sw = out.switches[spec.agg_id(c, a)];
        if (c == dst_cluster) {
          agg_sw->set_route(dst,
                            {port_of[agg_sw->id()].at(kSwitchKey | dst_tor)});
        } else {
          std::vector<std::uint32_t> ups;
          for (std::uint32_t k = 0; k < spec.cores; ++k) {
            ups.push_back(
                port_of[agg_sw->id()].at(kSwitchKey | spec.core_id(k)));
          }
          agg_sw->set_route(dst, std::move(ups));
        }
      }
    }

    for (std::uint32_t k = 0; k < spec.cores; ++k) {
      Switch* core_sw = out.switches[spec.core_id(k)];
      std::vector<std::uint32_t> downs;
      for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
        downs.push_back(
            port_of[core_sw->id()].at(kSwitchKey | spec.agg_id(dst_cluster, a)));
      }
      core_sw->set_route(dst, std::move(downs));
    }
  }

  return out;
}

PdesNetwork build_leaf_spine_partitioned(sim::ParallelEngine& engine,
                                         const NetworkConfig& config,
                                         PlacementPolicy policy) {
  if (config.spec.clusters != 1 || config.spec.cores != 0) {
    throw std::invalid_argument(
        "build_leaf_spine_partitioned: spec must be leaf-spine");
  }
  return build_clos_partitioned(engine, config, policy);
}

}  // namespace esim::core
