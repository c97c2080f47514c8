// TCP New Reno connection state machine.
//
// Implements what the paper's full-fidelity clusters run (OMNeT++/INET's
// "TCP New Reno"): a 3-way handshake, cumulative ACKs with out-of-order
// reassembly, slow start, congestion avoidance, fast retransmit, New Reno
// fast recovery with partial-ACK retransmission (RFC 6582), RFC 6298
// retransmission timeouts with exponential backoff and go-back-N recovery,
// and a FIN close initiated by the sending side once all payload is ACKed.
//
// RTT is measured with simulated timestamps (the receiver echoes the data
// packet's send time in `ts_echo`), so retransmitted segments still yield
// valid samples and Karn's algorithm is unnecessary.
//
// One connection object handles one direction of payload: the active opener
// is the data sender ("client"), the passive side is a pure receiver that
// ACKs. This matches the workloads in the paper's evaluation (unidirectional
// web-traffic flows drawn from the DCTCP trace distribution).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "net/packet.h"
#include "sim/simulator.h"
#include "tcp/rto.h"

namespace esim::telemetry {
class Counter;
class Histogram;
}

namespace esim::tcp {

class TcpConnection;

/// Services a TcpConnection needs from its owning host. Implemented by
/// tcp::Host; kept abstract so the state machine is unit-testable against a
/// scripted harness.
class TcpEndpoint {
 public:
  virtual ~TcpEndpoint() = default;

  /// Transmits a fully formed packet (the host stamps id and timestamps and
  /// pushes it into its uplink).
  virtual void tcp_transmit(net::Packet pkt) = 0;

  /// Engine used for connection timers.
  virtual sim::Simulator& tcp_sim() = 0;

  /// Measurement hook: one RTT sample observed by this endpoint. The
  /// evaluation's Figure 4 CDF is built from these.
  virtual void tcp_rtt_sample(sim::SimTime rtt) = 0;

  /// Called once per connection, from inside its on_packet, when it
  /// reaches TcpState::Done (before on_closed runs).
  virtual void tcp_finished(const TcpConnection& /*conn*/) {}
};

/// Connection lifecycle states (simplified close: no TIME_WAIT, no
/// simultaneous close — flows here are unidirectional request bodies).
enum class TcpState {
  Closed,
  SynSent,
  SynRcvd,
  Established,
  FinSent,
  Done,
};

/// One TCP connection endpoint (either the data sender or the receiver).
class TcpConnection {
 public:
  /// Segments carry at most net::kMss payload bytes, the initial window
  /// is 10 segments (RFC 6928), the retransmission timer runs on
  /// RtoEstimator's defaults, and DCTCP's gain is 1/16; none of these is
  /// a setting.
  struct Config {
    /// Initial slow-start threshold in bytes ("infinite" by default).
    std::uint32_t initial_ssthresh = 0xFFFFFFFF;
    /// Advertised receive window in bytes (receiver consumes instantly, so
    /// this is a fixed cap, not modeled buffer occupancy).
    std::uint32_t rwnd = 1 << 20;
    /// When true the receiver ACKs every second in-order segment (with an
    /// immediate ACK on gaps), roughly halving ACK traffic.
    bool delayed_ack = false;
    /// DCTCP mode (Alizadeh et al., SIGCOMM 2010): the receiver echoes
    /// each data packet's CE mark on its ACK; the sender maintains the
    /// EWMA marked fraction `alpha` and once per window reduces
    /// cwnd <- cwnd * (1 - alpha/2). Requires ECN marking at the links
    /// (net::Link::Config::ecn_threshold_bytes). Loss handling stays
    /// New Reno. Demonstrates the modularity goal of paper §3: the
    /// approximation framework is protocol-agnostic.
    bool dctcp = false;
  };

  /// Per-connection counters, exposed for tests and experiment reports.
  struct Stats {
    std::uint64_t segments_sent = 0;       ///< data segments (incl. rexmit)
    std::uint64_t retransmissions = 0;     ///< fast + timeout retransmits
    std::uint64_t timeouts = 0;            ///< RTO firings
    std::uint64_t fast_recoveries = 0;     ///< fast-retransmit episodes
    std::uint64_t dup_acks_received = 0;
    std::uint64_t bytes_acked = 0;
  };

  /// Creates the active (sending) endpoint. Call open() to start.
  /// `payload_bytes` must be < 2^31 (sequence space headroom).
  static std::unique_ptr<TcpConnection> make_active(
      TcpEndpoint& endpoint, net::FlowKey key, std::uint64_t flow_id,
      std::uint64_t payload_bytes, const Config& config);

  /// Creates the passive (receiving) endpoint in response to a SYN. The
  /// SYN itself must then be delivered via on_packet().
  static std::unique_ptr<TcpConnection> make_passive(TcpEndpoint& endpoint,
                                                     net::FlowKey key,
                                                     std::uint64_t flow_id,
                                                     const Config& config);

  ~TcpConnection();

  TcpConnection(TcpConnection&&) = delete;
  TcpConnection& operator=(TcpConnection&&) = delete;

  /// Active open: transmits the SYN and arms the handshake timer.
  void open();

  /// Delivers a packet addressed to this connection.
  void on_packet(const net::Packet& pkt);

  /// Current state.
  TcpState state() const { return state_; }

  /// The 4-tuple this endpoint sends with (src = this side).
  const net::FlowKey& key() const { return key_; }

  /// Workload flow id carried in every packet of this connection.
  std::uint64_t flow_id() const { return flow_id_; }

  /// True for the active (sending) endpoint.
  bool is_sender() const { return sender_; }

  /// Next sequence number expected from the peer: the cumulative ACK
  /// this side sends.
  std::uint32_t rcv_nxt() const { return rcv_nxt_; }

  /// Congestion window in bytes (sender side).
  double cwnd() const { return cwnd_; }

  /// Slow-start threshold in bytes (sender side).
  std::uint32_t ssthresh() const { return ssthresh_; }

  /// Bytes of payload cumulatively ACKed (sender) or received in order
  /// (receiver).
  std::uint64_t bytes_done() const;

  /// Counter snapshot.
  const Stats& stats() const { return stats_; }

  /// True when in New Reno fast recovery.
  bool in_recovery() const { return in_recovery_; }

  /// DCTCP's smoothed marked fraction (0 when DCTCP is off).
  double dctcp_alpha() const { return dctcp_alpha_; }

  /// Fires once on the sender when every payload byte has been ACKed
  /// (flow completion; the FIN exchange continues afterwards).
  std::function<void()> on_complete;

  /// Fires on the receiver as in-order payload arrives (delta bytes).
  std::function<void(std::uint64_t)> on_data;

  /// Fires once when the handshake completes on this side.
  std::function<void()> on_established;

  /// Fires once on the receiver when the peer's FIN is consumed (the
  /// whole request body has arrived, in order). Lets a server application
  /// respond, for example by opening a flow back from its own host.
  std::function<void()> on_closed;

 private:
  TcpConnection(TcpEndpoint& endpoint, net::FlowKey key, std::uint64_t flow_id,
                std::uint64_t payload_bytes, bool sender,
                const Config& config);

  // --- common ---
  net::Packet make_packet(net::TcpFlag flags, std::uint32_t seq,
                          std::uint32_t payload) const;
  void transmit_ack(sim::SimTime echo, bool ece = false);
  void dctcp_on_ack(const net::Packet& pkt, std::uint32_t acked);

  // --- sender side ---
  void handle_sender_packet(const net::Packet& pkt);
  void on_new_ack(const net::Packet& pkt);
  void on_dup_ack();
  void try_send();
  void send_segment(std::uint32_t seq, bool is_retransmission);
  void maybe_send_fin();
  void enter_fast_recovery();
  void on_rto();
  void arm_rto();
  void disarm_rto();
  std::uint32_t flight_size() const { return snd_nxt_ - snd_una_; }
  std::uint32_t effective_window() const;

  // --- receiver side ---
  void handle_receiver_packet(const net::Packet& pkt);
  void accept_payload(const net::Packet& pkt);
  void flush_ack(sim::SimTime echo);
  void schedule_delack(sim::SimTime echo);

  TcpEndpoint& endpoint_;
  net::FlowKey key_;
  std::uint64_t flow_id_;
  Config config_;
  bool sender_;
  TcpState state_ = TcpState::Closed;
  Stats stats_;

  // Aggregate tcp.* series shared by every connection on the engine;
  // connections are ephemeral, so totals must outlive them in the
  // registry. Null when telemetry is off.
  telemetry::Counter* m_segments_ = nullptr;
  telemetry::Counter* m_retransmissions_ = nullptr;
  telemetry::Counter* m_timeouts_ = nullptr;
  telemetry::Counter* m_fast_recoveries_ = nullptr;
  telemetry::Counter* m_dup_acks_ = nullptr;
  telemetry::Histogram* m_cwnd_ = nullptr;

  // Sequence space: SYN occupies [0,1); payload occupies
  // [1, 1 + payload_bytes); FIN occupies one number after the payload.
  std::uint64_t payload_bytes_ = 0;
  std::uint32_t data_end_ = 1;  // first seq past the payload

  // Sender state.
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  double cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recover_ = 0;  // New Reno recovery point
  bool fin_sent_ = false;
  bool complete_reported_ = false;
  RtoEstimator rto_;
  sim::EventHandle rto_timer_;

  // DCTCP sender state: per-window byte accounting for alpha.
  double dctcp_alpha_ = 0.0;
  std::uint32_t dctcp_window_end_ = 0;   // seq at which the window closes
  std::uint64_t dctcp_bytes_acked_ = 0;  // within the current window
  std::uint64_t dctcp_bytes_marked_ = 0;

  // Receiver state.
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, std::uint32_t> ooo_;  // seq -> len, disjoint
  std::uint64_t bytes_received_ = 0;
  std::uint32_t unacked_segments_ = 0;  // for delayed ACK
  bool pending_ece_ = false;  // a received-but-unacked packet carried CE
  sim::EventHandle delack_timer_;
};

}  // namespace esim::tcp
