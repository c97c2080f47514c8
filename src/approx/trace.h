// Boundary trace recording (paper §3: "We first briefly simulate a small
// network in full packet-level fidelity to generate training and testing
// sets for a machine learning model").
//
// The recorder taps the links at the edge of one cluster's fabric in a
// full-fidelity simulation and produces, per packet that crosses the
// boundary, the ground truth the micro model learns: did the fabric drop
// it, and if not, how long did the traversal take.
//
// Boundary geometry (matches what an ApproxCluster later replaces):
//   egress  : host->ToR link transmit (entry)  ->  Agg->Core transmit (exit)
//   ingress : Core->Agg transmit (entry)       ->  ToR->host transmit (exit)
// Drops anywhere inside the fabric (ToR/Agg output queues) mark the open
// entry as dropped. Intra-cluster packets never cross the boundary and are
// filtered out at entry by path replay.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "approx/features.h"
#include "net/clos.h"
#include "net/link.h"
#include "net/packet.h"

namespace esim::approx {

/// One boundary crossing observed in the full simulation.
struct BoundaryRecord {
  net::Packet packet;     ///< header snapshot at entry
  Direction direction = Direction::Egress;
  sim::SimTime entry;     ///< arrival at the fabric edge
  sim::SimTime exit;      ///< arrival at the far edge (if delivered)
  bool dropped = false;
  bool completed = false;  ///< exit or drop observed (else still in flight)
};

/// The boundary links of one cluster. Built by core/experiment helpers
/// from a BuiltNetwork; kept as a plain struct so this module does not
/// depend on the builders above it.
struct BoundaryTaps {
  std::vector<net::Link*> host_uplinks;     ///< egress entries
  std::vector<net::Link*> host_downlinks;   ///< ingress exits
  std::vector<net::Link*> agg_core_up;      ///< egress exits
  std::vector<net::Link*> core_agg_down;    ///< ingress entries
  /// Links whose queue drops count as fabric drops for this cluster
  /// (ToR->Agg, Agg->ToR, ToR->host, Agg->Core).
  std::vector<net::Link*> drop_links;
};

/// Installs observers on the taps and accumulates BoundaryRecords.
/// The recorder must outlive the simulation run it observes; it overwrites
/// the links' on_transmit/on_drop hooks.
class TraceRecorder {
 public:
  /// `cluster` is the cluster the taps belong to.
  TraceRecorder(const net::ClosSpec& spec, std::uint32_t cluster,
                const BoundaryTaps& taps);

  /// Marks still-open entries as incomplete. Call after the run.
  void finalize();

  /// All records in entry order (stable: entry events are sequential).
  const std::vector<BoundaryRecord>& records() const { return records_; }

  /// Records of one direction, entry-ordered, completed ones only.
  std::vector<BoundaryRecord> completed(Direction direction) const;

 private:
  void on_entry(const net::Packet& pkt, sim::SimTime arrive_at,
                Direction direction);
  void on_exit(const net::Packet& pkt, sim::SimTime arrive_at);
  void on_fabric_drop(const net::Packet& pkt);

  net::ClosSpec spec_;
  std::uint32_t cluster_;
  std::vector<BoundaryRecord> records_;
  std::unordered_map<std::uint64_t, std::size_t> open_;  // pkt id -> index
};

}  // namespace esim::approx
