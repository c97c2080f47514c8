#include "core/hybrid_pdes.h"

#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/partitioner.h"

namespace esim::core {

using net::ClosSpec;
using net::HostId;
using net::Link;
using net::Switch;
using net::SwitchId;

PartitionedHybridNetwork build_hybrid_network_partitioned(
    sim::ParallelEngine& engine, const HybridConfig& config,
    const approx::MicroModel& ingress_model,
    const approx::MicroModel& egress_model) {
  const ClosSpec& spec = config.net.spec;
  spec.validate();
  if (spec.clusters < 2) {
    throw std::invalid_argument(
        "build_hybrid_network_partitioned: need >= 2 clusters");
  }
  if (config.full_cluster >= spec.clusters) {
    throw std::invalid_argument(
        "build_hybrid_network_partitioned: bad full_cluster");
  }
  if (engine.lookahead() > config.net.fabric_link.propagation) {
    throw std::invalid_argument(
        "build_hybrid_network_partitioned: lookahead exceeds fabric link "
        "propagation");
  }
  if (engine.lookahead().to_seconds() > config.approx.min_latency_s) {
    throw std::invalid_argument(
        "build_hybrid_network_partitioned: lookahead exceeds the model's "
        "minimum latency (egress deliveries would violate causality)");
  }
  const bool batching =
      config.approx.batch_max > 1 && config.approx.batch_window > sim::SimTime{};
  if (batching &&
      config.approx.batch_window + engine.lookahead() >
          sim::SimTime::from_seconds_f(config.approx.min_latency_s)) {
    // A packet admitted at t may only be predicted at flush time
    // tf <= t + batch_window, and its egress delivery lands at
    // >= t + min_latency_s >= tf + (min_latency_s - batch_window). That
    // slack is the cluster partition's real send horizon, so it must
    // cover the engine's conservative lookahead.
    throw std::invalid_argument(
        "build_hybrid_network_partitioned: batch_window exceeds "
        "min_latency_s - lookahead (a coalesced packet could be held "
        "past the PDES lookahead it was admitted under)");
  }
  const std::uint32_t full = config.full_cluster;
  const std::uint32_t P = engine.num_partitions();

  PartitionedHybridNetwork out;
  HybridNetwork& net = out.net;
  net.spec = spec;
  net.full_cluster = full;
  net.hosts.resize(spec.total_hosts());
  net.switches.assign(spec.total_switches(), nullptr);
  net.clusters.assign(spec.clusters, nullptr);
  net.host_uplinks.resize(spec.total_hosts());
  net.host_downlinks.assign(spec.total_hosts(), nullptr);
  out.partition_of_host.assign(spec.total_hosts(), 0);
  out.partition_of_cluster.assign(spec.clusters, 0);

  // Placement: approximated clusters spread weight-balanced (by host
  // count) over partitions 1..P-1, leaving partition 0 to the full
  // cluster + cores (or everything on 0 when the engine has a single
  // partition). Clusters have no links to each other, so balance — not
  // cut — is the only objective here.
  if (P > 1) {
    std::vector<std::uint32_t> approx_clusters;
    std::vector<std::uint64_t> weights;
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      if (c == full) continue;
      approx_clusters.push_back(c);
      weights.push_back(spec.hosts_per_cluster());
    }
    const auto bins = assign_balanced(weights, P - 1);
    for (std::size_t i = 0; i < approx_clusters.size(); ++i) {
      out.partition_of_cluster[approx_clusters[i]] = 1 + bins[i];
    }
  }

  auto& sim0 = engine.partition(0).sim();

  // --- components ---
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    const std::uint32_t c = spec.cluster_of_host(h);
    const std::uint32_t p =
        c == full ? 0 : out.partition_of_cluster[c];
    out.partition_of_host[h] = p;
    net.hosts[h] = engine.partition(p).sim().add_component<tcp::Host>(
        spec.host_name(h), h, config.net.tcp);
  }
  for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
    const SwitchId id = spec.tor_id(full, t);
    net.switches[id] = sim0.add_component<Switch>(
        spec.tor_name(full, t), id, config.net.switch_processing);
  }
  for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
    const SwitchId id = spec.agg_id(full, a);
    net.switches[id] = sim0.add_component<Switch>(
        spec.agg_name(full, a), id, config.net.switch_processing);
  }
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    const SwitchId id = spec.core_id(k);
    net.switches[id] = sim0.add_component<Switch>(
        spec.core_name(k), id, config.net.switch_processing);
  }
  for (std::uint32_t c = 0; c < spec.clusters; ++c) {
    if (c == full) continue;
    ApproxCluster::Config acfg = config.approx;
    acfg.spec = spec;
    acfg.cluster = c;
    const std::uint32_t p = out.partition_of_cluster[c];
    net.clusters[c] =
        engine.partition(p).sim().add_component<ApproxCluster>(
            "approx.c" + std::to_string(c), acfg, ingress_model,
            egress_model);
  }

  auto link_name = [](const std::string& a, const std::string& b) {
    return a + "->" + b;
  };
  auto cross = [&engine](std::uint32_t from, std::uint32_t to) {
    return [&engine, from, to](sim::SimTime at, std::uint64_t key,
                               sim::EventFn&& fn) {
      engine.send_cross(from, to, at, key, std::move(fn));
    };
  };

  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> port_of(
      spec.total_switches());
  constexpr std::uint64_t kHostKey = 1ULL << 40;
  constexpr std::uint64_t kSwitchKey = 2ULL << 40;
  constexpr std::uint64_t kClusterKey = 3ULL << 40;

  // --- full cluster + cores, all partition-0-local ---
  for (HostId h = 0; h < spec.total_hosts(); ++h) {
    const std::uint32_t c = spec.cluster_of_host(h);
    tcp::Host* host = net.hosts[h];
    if (c == full) {
      Switch* tor_sw = net.switches[spec.tor_of_host(h)];
      auto* up = sim0.add_component<Link>(
          link_name(host->name(), tor_sw->name()), config.net.host_uplink,
          tor_sw);
      auto* down = sim0.add_component<Link>(
          link_name(tor_sw->name(), host->name()), config.net.fabric_link,
          host);
      host->set_uplink(up);
      net.host_uplinks[h] = up;
      net.host_downlinks[h] = down;
      port_of[tor_sw->id()][kHostKey | h] = tor_sw->add_port(down);
    } else {
      // Host and its ApproxCluster share a partition: local link.
      ApproxCluster* cluster = net.clusters[c];
      auto& psim = engine.partition(out.partition_of_host[h]).sim();
      auto* up = psim.add_component<Link>(
          link_name(host->name(), cluster->name()), config.net.host_uplink,
          cluster);
      host->set_uplink(up);
      net.host_uplinks[h] = up;
      cluster->attach_host(h, host);
    }
  }
  for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
    Switch* tor_sw = net.switches[spec.tor_id(full, t)];
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      Switch* agg_sw = net.switches[spec.agg_id(full, a)];
      auto* up = sim0.add_component<Link>(
          link_name(tor_sw->name(), agg_sw->name()), config.net.fabric_link,
          agg_sw);
      auto* down = sim0.add_component<Link>(
          link_name(agg_sw->name(), tor_sw->name()), config.net.fabric_link,
          tor_sw);
      port_of[tor_sw->id()][kSwitchKey | agg_sw->id()] = tor_sw->add_port(up);
      port_of[agg_sw->id()][kSwitchKey | tor_sw->id()] =
          agg_sw->add_port(down);
    }
  }
  for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
    Switch* agg_sw = net.switches[spec.agg_id(full, a)];
    for (std::uint32_t k = 0; k < spec.cores; ++k) {
      Switch* core_sw = net.switches[spec.core_id(k)];
      auto* up = sim0.add_component<Link>(
          link_name(agg_sw->name(), core_sw->name()), config.net.fabric_link,
          core_sw);
      auto* down = sim0.add_component<Link>(
          link_name(core_sw->name(), agg_sw->name()), config.net.fabric_link,
          agg_sw);
      port_of[agg_sw->id()][kSwitchKey | core_sw->id()] =
          agg_sw->add_port(up);
      port_of[core_sw->id()][kSwitchKey | agg_sw->id()] =
          core_sw->add_port(down);
      net.core_links.push_back(CoreAttachment{full, a, k, up, down});
    }
  }

  // --- core <-> approximated clusters (the only cross-partition edges) ---
  for (std::uint32_t k = 0; k < spec.cores; ++k) {
    Switch* core_sw = net.switches[spec.core_id(k)];
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      if (c == full) continue;
      ApproxCluster* cluster = net.clusters[c];
      const std::uint32_t pc = out.partition_of_cluster[c];
      auto* down = sim0.add_component<Link>(
          link_name(core_sw->name(), cluster->name()),
          config.net.fabric_link, cluster);
      if (pc != 0) down->set_remote_scheduler(cross(0, pc));
      port_of[core_sw->id()][kClusterKey | c] = core_sw->add_port(down);
      cluster->attach_core(k, core_sw);
      if (pc != 0) cluster->set_core_remote(k, cross(pc, 0));
    }
  }

  // --- per-pair lookahead ---
  // The only channels are partition 0 <-> each cluster-hosting partition:
  // core -> cluster deliveries ride a fabric link (>= its propagation),
  // and cluster -> core injections carry at least the model's minimum
  // latency. Everything else (notably cluster <-> cluster) never
  // exchanges a message, so those pairs get infinite lookahead and never
  // constrain the per-pair window.
  if (P > 1) {
    std::vector<bool> hosts_clusters(P, false);
    for (std::uint32_t c = 0; c < spec.clusters; ++c) {
      if (c != full) hosts_clusters[out.partition_of_cluster[c]] = true;
    }
    for (std::uint32_t a = 0; a < P; ++a) {
      for (std::uint32_t b = 0; b < P; ++b) {
        if (a == b) continue;
        sim::SimTime lah = sim::ParallelEngine::infinite_lookahead();
        if (a == 0 && hosts_clusters[b]) {
          lah = config.net.fabric_link.propagation;
        } else if (b == 0 && hosts_clusters[a]) {
          // Unbatched, an egress injection granted at t_d is reserved
          // at arrival t with t_d >= t + min_latency_s. With batching
          // the reservation is deferred to the flush at
          // tf <= t + batch_window, shrinking the provable send horizon
          // to min_latency_s - batch_window (validated above to still
          // cover the engine lookahead).
          sim::SimTime horizon =
              sim::SimTime::from_seconds_f(config.approx.min_latency_s);
          if (batching) horizon = horizon - config.approx.batch_window;
          lah = std::max(horizon, engine.lookahead());
        }
        engine.set_pair_lookahead(a, b, lah);
      }
    }
  }

  // --- FIBs (identical rules to the sequential hybrid build) ---
  for (HostId dst = 0; dst < spec.total_hosts(); ++dst) {
    const std::uint32_t dst_cluster = spec.cluster_of_host(dst);
    const SwitchId dst_tor = spec.tor_of_host(dst);
    for (std::uint32_t t = 0; t < spec.tors_per_cluster; ++t) {
      Switch* tor_sw = net.switches[spec.tor_id(full, t)];
      if (tor_sw->id() == dst_tor && dst_cluster == full) {
        tor_sw->set_route(dst, {port_of[tor_sw->id()].at(kHostKey | dst)});
      } else {
        std::vector<std::uint32_t> ups;
        for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
          ups.push_back(
              port_of[tor_sw->id()].at(kSwitchKey | spec.agg_id(full, a)));
        }
        tor_sw->set_route(dst, std::move(ups));
      }
    }
    for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
      Switch* agg_sw = net.switches[spec.agg_id(full, a)];
      if (dst_cluster == full) {
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
    for (std::uint32_t k = 0; k < spec.cores; ++k) {
      Switch* core_sw = net.switches[spec.core_id(k)];
      if (dst_cluster == full) {
        std::vector<std::uint32_t> downs;
        for (std::uint32_t a = 0; a < spec.aggs_per_cluster; ++a) {
          downs.push_back(port_of[core_sw->id()].at(
              kSwitchKey | spec.agg_id(full, a)));
        }
        core_sw->set_route(dst, std::move(downs));
      } else {
        core_sw->set_route(
            dst, {port_of[core_sw->id()].at(kClusterKey | dst_cluster)});
      }
    }
  }

  for (auto* cluster : net.clusters) {
    if (cluster != nullptr) cluster->start();
  }
  return out;
}

}  // namespace esim::core
