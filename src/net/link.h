// Links: the unidirectional output port + wire abstraction.
//
// A Link bundles what OMNeT++/INET splits across queue, MAC, and channel
// modules: a drop-tail byte-bounded FIFO, a serializer running at the link
// bandwidth, and a propagation-delay wire. Hosts and switches both transmit
// through Links. A Link delivers into a PacketHandler, normally by
// scheduling on its own engine; when the receiver lives in another PDES
// partition a remote scheduler is installed instead (see sim/parallel.h).
//
// One event per hop. A FIFO drop-tail port fixes each packet's departure
// the moment it is admitted: it starts when the serializer frees up and
// leaves one transmission time later. send() therefore does all of a
// packet's work at admission — drop/ECN decision, start and departure
// times, the on_transmit observer, and the keyed delivery event at
// departure + propagation. No event marks the end of a serialization; the
// port's state (busy, queue contents, departures so far) is derived from
// now() over a FIFO of (start, depart, size) records, retired lazily.
//
// Same-instant rule: a serialization that ends at t has freed the port for
// every send at t, whichever event makes that send (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "net/packet.h"
#include "sim/component.h"
#include "stats/collectors.h"

namespace esim::telemetry {
class Counter;
class Histogram;
}

namespace esim::net {

/// Anything that can accept a packet from a Link (switches, hosts, and
/// approximated-cluster models).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;

  /// Takes ownership of the packet that just finished arriving.
  virtual void handle_packet(Packet pkt) = 0;
};

/// Schedules `fn` at absolute virtual time `at` on the *receiving* end's
/// engine, with the FES same-time priority `key` (the packet id for link
/// deliveries; see event_queue.h) preserved across the boundary. Used for
/// links that cross PDES partitions. Takes the event payload as an rvalue
/// sim::EventFn so per-packet delivery closures ride the FES's
/// small-buffer path end to end (no std::function boxing, no extra
/// relocation at the partition boundary).
using RemoteScheduler = std::function<void(sim::SimTime at, std::uint64_t key,
                                           sim::EventFn&& fn)>;

/// Unidirectional link: drop-tail queue + serializer + propagation wire.
class Link : public sim::Component {
 public:
  struct Config {
    /// Serialization rate in bits per second (default 10 GbE).
    double bandwidth_bps = 10e9;
    /// Propagation delay (wire + receiver pipeline).
    sim::SimTime propagation = sim::SimTime::from_us(1);
    /// Queue capacity in bytes. Packets that do not fit are dropped.
    std::uint32_t queue_capacity_bytes = 150'000;
    /// ECN marking threshold in queued bytes: packets enqueued while the
    /// queue holds at least this much get the congestion-experienced bit
    /// set (DCTCP-style marking). 0 disables marking. The TCP stack here
    /// does not react to ECN (New Reno, as the paper ran); the bit is a
    /// header field the approximation models can observe and learn
    /// (paper §4.2).
    std::uint32_t ecn_threshold_bytes = 0;
  };

  /// Creates a link delivering into `dst` (must outlive the link). Throws
  /// std::invalid_argument for a non-finite or non-positive bandwidth, a
  /// negative propagation delay, or a null destination.
  Link(sim::Simulator& sim, std::string name, const Config& config,
       PacketHandler* dst);

  /// Offers a packet for transmission; drops it if the queue is full.
  /// An admitted packet's departure and arrival are fixed here.
  void send(Packet pkt);

  /// Bytes currently queued (excludes the packet being serialized).
  std::uint32_t queued_bytes() const;

  /// Packets currently queued (excludes the packet being serialized).
  std::size_t queued_packets() const;

  /// True while a packet is being serialized onto the wire.
  bool busy() const;

  /// Send/delivery/drop accounting for this link. `delivered` counts the
  /// admitted packets that have departed by now().
  const stats::PacketCounter& counter() const;

  /// Time to serialize `bytes` at this link's bandwidth.
  sim::SimTime tx_time(std::uint32_t bytes) const;

  /// Configured propagation delay.
  sim::SimTime propagation() const { return config_.propagation; }

  /// Observer invoked once per admitted packet, at admission, with the
  /// exact instant it will arrive at the far end (departure +
  /// propagation). Never invoked for a dropped packet. Used by the
  /// boundary trace recorder and the differential digest.
  std::function<void(const Packet&, sim::SimTime arrive_at)> on_transmit;

  /// Observer invoked when the queue rejects a packet.
  std::function<void(const Packet&)> on_drop;

  /// Routes deliveries through a cross-partition scheduler instead of the
  /// local engine. `propagation()` must be >= the engine's lookahead.
  /// Deliveries are posted at admission, so they reach the scheduler at
  /// least `propagation()` (plus any queueing) ahead of their instant.
  void set_remote_scheduler(RemoteScheduler remote) {
    remote_ = std::move(remote);
  }

  /// Applies a memoized phase's accounting delta (src/memo replay): bumps
  /// the packet counter and the aggregate telemetry counters exactly as
  /// the live phase would have. The queue-depth histogram is NOT replayed
  /// (per-enqueue samples are not part of the recorded delta); histograms
  /// are diagnostics, not digest state.
  void memo_apply_counter_delta(const stats::PacketCounter& d);

 private:
  /// An admitted packet's fixed serializer schedule.
  struct Transmission {
    sim::SimTime start;
    sim::SimTime depart;
    std::uint32_t size;
  };

  /// Drops the packets that have departed by now() from the FIFO and
  /// counts them delivered. Logically const: it only catches the cached
  /// state up with the clock.
  void retire() const;
  /// After retire(): true when the FIFO head has started serializing (at
  /// most the head can have).
  bool head_started() const {
    return !fifo_.empty() && fifo_.front().start <= now();
  }

  Config config_;
  PacketHandler* dst_;
  /// Admitted packets that have not departed as of the last retire(), in
  /// admission (= departure) order, and their total size.
  mutable std::deque<Transmission> fifo_;
  mutable std::uint64_t fifo_bytes_ = 0;
  /// Departure of the last admitted packet: when the serializer frees up.
  sim::SimTime busy_until_;
  mutable stats::PacketCounter counter_;
  RemoteScheduler remote_;
  // Aggregate per-simulator series (net.link.*), shared by every Link on
  // the engine. Null when telemetry is off; captured once at construction.
  // net.link.delivered is bumped as departures are retired, so it can lag
  // counter().delivered until the link next sends or is inspected.
  telemetry::Counter* m_sent_ = nullptr;
  telemetry::Counter* m_delivered_ = nullptr;
  telemetry::Counter* m_dropped_ = nullptr;
  telemetry::Histogram* m_queue_depth_ = nullptr;
};

}  // namespace esim::net
