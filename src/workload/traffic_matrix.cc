#include "workload/traffic_matrix.h"

#include <stdexcept>

namespace esim::workload {

UniformTraffic::UniformTraffic(std::uint32_t num_hosts)
    : num_hosts_{num_hosts} {
  if (num_hosts < 2) {
    throw std::invalid_argument("UniformTraffic: need >= 2 hosts");
  }
}

std::pair<net::HostId, net::HostId> UniformTraffic::sample(
    sim::Rng& rng) const {
  const auto src = static_cast<net::HostId>(rng.uniform_int(num_hosts_));
  auto dst = static_cast<net::HostId>(rng.uniform_int(num_hosts_ - 1));
  if (dst >= src) ++dst;
  return {src, dst};
}

ClusterMixTraffic::ClusterMixTraffic(const net::ClosSpec& spec,
                                     double intra_fraction)
    : spec_{spec}, intra_fraction_{intra_fraction} {
  spec_.validate();
  if (intra_fraction < 0.0 || intra_fraction > 1.0) {
    throw std::invalid_argument("ClusterMixTraffic: fraction outside [0,1]");
  }
  if (spec_.clusters < 2 && intra_fraction < 1.0) {
    throw std::invalid_argument(
        "ClusterMixTraffic: inter-cluster traffic needs >= 2 clusters");
  }
  if (spec_.hosts_per_cluster() < 2 && intra_fraction > 0.0) {
    throw std::invalid_argument(
        "ClusterMixTraffic: intra-cluster traffic needs >= 2 hosts per "
        "cluster");
  }
}

std::pair<net::HostId, net::HostId> ClusterMixTraffic::sample(
    sim::Rng& rng) const {
  const auto src =
      static_cast<net::HostId>(rng.uniform_int(spec_.total_hosts()));
  const std::uint32_t src_cluster = spec_.cluster_of_host(src);
  const std::uint32_t hpc = spec_.hosts_per_cluster();
  if (rng.uniform() < intra_fraction_) {
    // Destination inside the source's cluster, != src.
    auto offset = static_cast<std::uint32_t>(rng.uniform_int(hpc - 1));
    const std::uint32_t src_offset = src % hpc;
    if (offset >= src_offset) ++offset;
    return {src, src_cluster * hpc + offset};
  }
  // Destination in a different cluster.
  auto cluster =
      static_cast<std::uint32_t>(rng.uniform_int(spec_.clusters - 1));
  if (cluster >= src_cluster) ++cluster;
  const auto offset = static_cast<std::uint32_t>(rng.uniform_int(hpc));
  return {src, cluster * hpc + offset};
}

}  // namespace esim::workload
