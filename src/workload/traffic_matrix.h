// Traffic matrices: who talks to whom.
#pragma once

#include <cstdint>
#include <utility>

#include "net/clos.h"
#include "net/packet.h"
#include "sim/random.h"

namespace esim::workload {

/// Chooses (source, destination) host pairs for new flows.
class TrafficMatrix {
 public:
  virtual ~TrafficMatrix() = default;

  /// Draws one src/dst pair with src != dst.
  virtual std::pair<net::HostId, net::HostId> sample(sim::Rng& rng) const = 0;
};

/// All-to-all uniform: any ordered pair of distinct hosts.
class UniformTraffic final : public TrafficMatrix {
 public:
  explicit UniformTraffic(std::uint32_t num_hosts);
  std::pair<net::HostId, net::HostId> sample(sim::Rng& rng) const override;

 private:
  std::uint32_t num_hosts_;
};

/// Cluster-aware mix: with probability `intra_fraction` the destination is
/// drawn from the source's own cluster, otherwise from a different cluster.
/// Models the locality of real data center traffic.
class ClusterMixTraffic final : public TrafficMatrix {
 public:
  ClusterMixTraffic(const net::ClosSpec& spec, double intra_fraction);
  std::pair<net::HostId, net::HostId> sample(sim::Rng& rng) const override;

 private:
  net::ClosSpec spec_;
  double intra_fraction_;
};

}  // namespace esim::workload
