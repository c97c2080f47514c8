#include "tcp/tcp_connection.h"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace esim::tcp {

using net::kMss;
using net::Packet;
using net::TcpFlag;
using sim::SimTime;

namespace {

/// Initial congestion window in segments (RFC 6928).
constexpr std::uint32_t kInitialCwndSegments = 10;
/// DCTCP gain g of the marked-fraction EWMA (the DCTCP paper's 1/16).
constexpr double kDctcpGain = 0.0625;

}  // namespace

std::unique_ptr<TcpConnection> TcpConnection::make_active(
    TcpEndpoint& endpoint, net::FlowKey key, std::uint64_t flow_id,
    std::uint64_t payload_bytes, const Config& config) {
  return std::unique_ptr<TcpConnection>(new TcpConnection(
      endpoint, key, flow_id, payload_bytes, /*sender=*/true, config));
}

std::unique_ptr<TcpConnection> TcpConnection::make_passive(
    TcpEndpoint& endpoint, net::FlowKey key, std::uint64_t flow_id,
    const Config& config) {
  return std::unique_ptr<TcpConnection>(new TcpConnection(
      endpoint, key, flow_id, /*payload_bytes=*/0, /*sender=*/false, config));
}

TcpConnection::TcpConnection(TcpEndpoint& endpoint, net::FlowKey key,
                             std::uint64_t flow_id,
                             std::uint64_t payload_bytes, bool sender,
                             const Config& config)
    : endpoint_{endpoint},
      key_{key},
      flow_id_{flow_id},
      config_{config},
      sender_{sender},
      payload_bytes_{payload_bytes} {
  if (payload_bytes >= (1ULL << 31)) {
    throw std::invalid_argument(
        "TcpConnection: payload too large for 32-bit sequence space");
  }
  data_end_ = 1 + static_cast<std::uint32_t>(payload_bytes);
  if (auto* r = endpoint_.tcp_sim().telemetry()) {
    m_segments_ = r->counter("tcp.segments_sent");
    m_retransmissions_ = r->counter("tcp.retransmissions");
    m_timeouts_ = r->counter("tcp.timeouts");
    m_fast_recoveries_ = r->counter("tcp.fast_recoveries");
    m_dup_acks_ = r->counter("tcp.dup_acks");
    m_cwnd_ = r->histogram("tcp.cwnd_bytes");
  }
}

TcpConnection::~TcpConnection() {
  disarm_rto();
  if (delack_timer_.valid()) endpoint_.tcp_sim().cancel(delack_timer_);
}

Packet TcpConnection::make_packet(TcpFlag flags, std::uint32_t seq,
                                  std::uint32_t payload) const {
  Packet pkt;
  pkt.flow = key_;
  pkt.flow_id = flow_id_;
  pkt.flags = flags;
  pkt.seq = seq;
  pkt.payload = payload;
  return pkt;
}

void TcpConnection::open() {
  if (!sender_ || state_ != TcpState::Closed) {
    throw std::logic_error("TcpConnection::open: not a fresh active endpoint");
  }
  state_ = TcpState::SynSent;
  endpoint_.tcp_transmit(make_packet(TcpFlag::Syn, 0, 0));
  arm_rto();
}

void TcpConnection::on_packet(const Packet& pkt) {
  if (state_ == TcpState::Done) {
    // Late duplicates after close: re-ACK so a retransmitting peer can
    // finish, then ignore.
    if (!sender_) transmit_ack(pkt.sent_at);
    return;
  }
  if (sender_) {
    handle_sender_packet(pkt);
  } else {
    handle_receiver_packet(pkt);
  }
}

void TcpConnection::transmit_ack(SimTime echo, bool ece) {
  Packet ack = make_packet(TcpFlag::Ack, 0, 0);
  ack.ack_seq = rcv_nxt_;
  ack.ts_echo = echo;
  ack.ece = ece;
  endpoint_.tcp_transmit(std::move(ack));
}

void TcpConnection::dctcp_on_ack(const Packet& pkt, std::uint32_t acked) {
  // DCTCP sender: account marked vs total bytes, and once per window of
  // data update alpha and apply the proportional reduction.
  dctcp_bytes_acked_ += acked;
  if (pkt.ece) dctcp_bytes_marked_ += acked;
  if (pkt.ack_seq < dctcp_window_end_) return;
  if (dctcp_bytes_acked_ > 0) {
    const double fraction = static_cast<double>(dctcp_bytes_marked_) /
                            static_cast<double>(dctcp_bytes_acked_);
    dctcp_alpha_ = (1.0 - kDctcpGain) * dctcp_alpha_ + kDctcpGain * fraction;
    if (dctcp_bytes_marked_ > 0 && !in_recovery_) {
      cwnd_ = std::max(cwnd_ * (1.0 - dctcp_alpha_ / 2.0),
                       static_cast<double>(kMss));
      ssthresh_ = std::max(static_cast<std::uint32_t>(cwnd_),
                           2 * kMss);
    }
  }
  dctcp_bytes_acked_ = 0;
  dctcp_bytes_marked_ = 0;
  dctcp_window_end_ = snd_nxt_;
}

// ---------------------------------------------------------------- sender --

void TcpConnection::handle_sender_packet(const Packet& pkt) {
  if (state_ == TcpState::SynSent) {
    if (pkt.has(TcpFlag::Syn) && pkt.has(TcpFlag::Ack) && pkt.ack_seq >= 1) {
      if (pkt.ts_echo != SimTime{}) {
        const SimTime rtt = endpoint_.tcp_sim().now() - pkt.ts_echo;
        rto_.add_sample(rtt);
        endpoint_.tcp_rtt_sample(rtt);
      }
      snd_una_ = 1;
      snd_nxt_ = 1;
      rcv_nxt_ = 1;  // peer's SYN consumed one number
      cwnd_ = static_cast<double>(kInitialCwndSegments) * kMss;
      ssthresh_ = config_.initial_ssthresh;
      state_ = TcpState::Established;
      disarm_rto();
      transmit_ack(pkt.sent_at);
      if (on_established) on_established();
      if (payload_bytes_ == 0) {
        if (!complete_reported_) {
          complete_reported_ = true;
          if (on_complete) on_complete();
        }
        maybe_send_fin();
      } else {
        try_send();
      }
    }
    return;
  }

  if (pkt.has(TcpFlag::Syn)) {
    // Retransmitted SYN|ACK: our handshake ACK was lost. Re-ACK.
    transmit_ack(pkt.sent_at);
    return;
  }
  if (!pkt.has(TcpFlag::Ack)) return;

  if (pkt.ack_seq > snd_una_) {
    on_new_ack(pkt);
  } else if (pkt.ack_seq == snd_una_ && flight_size() > 0) {
    ++stats_.dup_acks_received;
    if (m_dup_acks_ != nullptr) m_dup_acks_->inc();
    on_dup_ack();
  }
}

void TcpConnection::on_new_ack(const Packet& pkt) {
  if (pkt.ts_echo != SimTime{}) {
    const SimTime rtt = endpoint_.tcp_sim().now() - pkt.ts_echo;
    rto_.add_sample(rtt);
    endpoint_.tcp_rtt_sample(rtt);
  }

  const std::uint32_t acked = pkt.ack_seq - snd_una_;
  stats_.bytes_acked += acked;
  if (config_.dctcp) dctcp_on_ack(pkt, acked);

  if (in_recovery_) {
    if (pkt.ack_seq >= recover_) {
      // Full ACK: leave recovery, deflate to ssthresh (RFC 6582).
      in_recovery_ = false;
      dupacks_ = 0;
      cwnd_ = static_cast<double>(ssthresh_);
      snd_una_ = pkt.ack_seq;
      if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    } else {
      // Partial ACK: retransmit the next hole, deflate by the amount
      // acked, inflate by one MSS; stay in recovery.
      snd_una_ = pkt.ack_seq;
      if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
      cwnd_ = std::max(static_cast<double>(kMss),
                       cwnd_ - acked + kMss);
      if (snd_una_ < data_end_) {
        send_segment(snd_una_, /*is_retransmission=*/true);
      }
    }
  } else {
    snd_una_ = pkt.ack_seq;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    dupacks_ = 0;
    if (cwnd_ < static_cast<double>(ssthresh_)) {
      cwnd_ += kMss;  // slow start
    } else {
      cwnd_ += static_cast<double>(kMss) *
               static_cast<double>(kMss) / cwnd_;  // AIMD increase
    }
  }

  // FIN acknowledged?
  if (fin_sent_ && pkt.ack_seq >= data_end_ + 1) {
    state_ = TcpState::Done;
    disarm_rto();
    endpoint_.tcp_finished(*this);
    return;
  }

  if (snd_una_ >= data_end_ && !complete_reported_) {
    complete_reported_ = true;
    if (on_complete) on_complete();
  }

  maybe_send_fin();
  try_send();

  if (m_cwnd_ != nullptr) {
    m_cwnd_->record(static_cast<std::uint64_t>(cwnd_));
  }

  if (flight_size() > 0 || (fin_sent_ && state_ != TcpState::Done)) {
    arm_rto();
  } else {
    disarm_rto();
  }
}

void TcpConnection::on_dup_ack() {
  if (in_recovery_) {
    cwnd_ += kMss;  // window inflation per extra dup ACK
    try_send();
    return;
  }
  ++dupacks_;
  if (dupacks_ == 3) enter_fast_recovery();
}

void TcpConnection::enter_fast_recovery() {
  ++stats_.fast_recoveries;
  if (m_fast_recoveries_ != nullptr) m_fast_recoveries_->inc();
  in_recovery_ = true;
  recover_ = snd_nxt_;
  const std::uint32_t flight = flight_size();
  ssthresh_ = std::max(flight / 2, 2 * kMss);
  cwnd_ = static_cast<double>(ssthresh_) + 3.0 * kMss;
  if (snd_una_ < data_end_) {
    send_segment(snd_una_, /*is_retransmission=*/true);
  } else if (fin_sent_) {
    endpoint_.tcp_transmit(make_packet(TcpFlag::Fin | TcpFlag::Ack,
                                       data_end_, 0));
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
  }
  arm_rto();
}

std::uint32_t TcpConnection::effective_window() const {
  const auto cw = static_cast<std::uint32_t>(
      std::max(cwnd_, static_cast<double>(kMss)));
  return std::min(cw, config_.rwnd);
}

void TcpConnection::try_send() {
  if (state_ != TcpState::Established && state_ != TcpState::FinSent) return;
  const std::uint32_t win = effective_window();
  while (snd_nxt_ < data_end_) {
    const std::uint32_t len =
        std::min<std::uint32_t>(kMss, data_end_ - snd_nxt_);
    if (snd_nxt_ + len > snd_una_ + win) break;
    send_segment(snd_nxt_, /*is_retransmission=*/false);
    snd_nxt_ += len;
  }
  if (flight_size() > 0 && !rto_timer_.valid()) arm_rto();
}

void TcpConnection::send_segment(std::uint32_t seq, bool is_retransmission) {
  const std::uint32_t len =
      std::min<std::uint32_t>(kMss, data_end_ - seq);
  Packet pkt = make_packet(TcpFlag::Ack, seq, len);
  pkt.ack_seq = rcv_nxt_;
  endpoint_.tcp_transmit(std::move(pkt));
  ++stats_.segments_sent;
  if (m_segments_ != nullptr) m_segments_->inc();
  if (is_retransmission) {
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
  }
}

void TcpConnection::maybe_send_fin() {
  if (fin_sent_ || state_ != TcpState::Established) return;
  if (snd_una_ < data_end_ || snd_nxt_ > data_end_) return;
  if (snd_una_ == data_end_) {
    Packet fin = make_packet(TcpFlag::Fin | TcpFlag::Ack, data_end_, 0);
    fin.ack_seq = rcv_nxt_;
    endpoint_.tcp_transmit(std::move(fin));
    fin_sent_ = true;
    state_ = TcpState::FinSent;
    arm_rto();
  }
}

void TcpConnection::on_rto() {
  rto_timer_ = {};
  ++stats_.timeouts;
  if (m_timeouts_ != nullptr) m_timeouts_->inc();
  rto_.backoff();

  if (state_ == TcpState::SynSent) {
    endpoint_.tcp_transmit(make_packet(TcpFlag::Syn, 0, 0));
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
    arm_rto();
    return;
  }

  const std::uint32_t flight = flight_size();
  ssthresh_ = std::max(flight / 2, 2 * kMss);
  cwnd_ = static_cast<double>(kMss);  // loss window (RFC 5681)
  in_recovery_ = false;
  dupacks_ = 0;

  if (fin_sent_ && snd_una_ >= data_end_) {
    endpoint_.tcp_transmit(
        make_packet(TcpFlag::Fin | TcpFlag::Ack, data_end_, 0));
    ++stats_.retransmissions;
    if (m_retransmissions_ != nullptr) m_retransmissions_->inc();
    arm_rto();
    return;
  }

  // Go-back-N: rewind and let try_send re-emit from the first hole.
  snd_nxt_ = snd_una_;
  if (snd_una_ < data_end_) {
    send_segment(snd_una_, /*is_retransmission=*/true);
    snd_nxt_ = snd_una_ + std::min<std::uint32_t>(kMss,
                                                  data_end_ - snd_una_);
  }
  arm_rto();
}

void TcpConnection::arm_rto() {
  disarm_rto();
  rto_timer_ =
      endpoint_.tcp_sim().schedule_in(rto_.rto(), [this] { on_rto(); });
}

void TcpConnection::disarm_rto() {
  if (rto_timer_.valid()) {
    endpoint_.tcp_sim().cancel(rto_timer_);
    rto_timer_ = {};
  }
}

// -------------------------------------------------------------- receiver --

void TcpConnection::handle_receiver_packet(const Packet& pkt) {
  if (pkt.has(TcpFlag::Syn)) {
    if (state_ == TcpState::Closed || state_ == TcpState::SynRcvd) {
      state_ = TcpState::SynRcvd;
      rcv_nxt_ = 1;
      Packet synack = make_packet(TcpFlag::Syn | TcpFlag::Ack, 0, 0);
      synack.ack_seq = 1;
      synack.ts_echo = pkt.sent_at;
      endpoint_.tcp_transmit(std::move(synack));
    }
    return;
  }

  if (state_ == TcpState::SynRcvd && pkt.has(TcpFlag::Ack)) {
    state_ = TcpState::Established;
    snd_una_ = 1;
    snd_nxt_ = 1;
    if (on_established) on_established();
  }
  if (state_ != TcpState::Established) return;

  if (pkt.payload > 0) {
    accept_payload(pkt);
    return;
  }

  if (pkt.has(TcpFlag::Fin)) {
    if (pkt.seq == rcv_nxt_) {
      rcv_nxt_ += 1;  // FIN consumes one sequence number
      state_ = TcpState::Done;
      endpoint_.tcp_finished(*this);
      if (delack_timer_.valid()) {
        endpoint_.tcp_sim().cancel(delack_timer_);
        delack_timer_ = {};
      }
      transmit_ack(pkt.sent_at);
      if (on_closed) on_closed();
    } else {
      // FIN beyond a hole: dup-ACK so the sender keeps retransmitting.
      transmit_ack(pkt.sent_at);
    }
  }
}

void TcpConnection::accept_payload(const Packet& pkt) {
  const std::uint32_t s = pkt.seq;
  const std::uint32_t l = pkt.payload;
  bool advanced = false;
  if (config_.dctcp && pkt.ecn) pending_ece_ = true;

  if (s + l <= rcv_nxt_) {
    // Entirely duplicate: immediate (dup) ACK.
    flush_ack(pkt.sent_at);
    return;
  }
  if (s <= rcv_nxt_) {
    rcv_nxt_ = s + l;
    advanced = true;
    // Drain any out-of-order segments now contiguous.
    for (auto it = ooo_.begin(); it != ooo_.end();) {
      if (it->first <= rcv_nxt_) {
        rcv_nxt_ = std::max(rcv_nxt_, it->first + it->second);
        it = ooo_.erase(it);
      } else {
        break;
      }
    }
  } else {
    ooo_.try_emplace(s, l);
  }

  if (advanced) {
    const std::uint64_t total = rcv_nxt_ - 1;  // payload starts at seq 1
    const std::uint64_t delta = total - bytes_received_;
    bytes_received_ = total;
    if (on_data && delta > 0) on_data(delta);
  }

  const bool gap = !ooo_.empty() || !advanced;
  if (gap || !config_.delayed_ack) {
    flush_ack(pkt.sent_at);
  } else {
    ++unacked_segments_;
    if (unacked_segments_ >= 2) {
      flush_ack(pkt.sent_at);
    } else {
      schedule_delack(pkt.sent_at);
    }
  }
}

void TcpConnection::flush_ack(SimTime echo) {
  unacked_segments_ = 0;
  if (delack_timer_.valid()) {
    endpoint_.tcp_sim().cancel(delack_timer_);
    delack_timer_ = {};
  }
  const bool ece = pending_ece_;
  pending_ece_ = false;
  transmit_ack(echo, ece);
}

void TcpConnection::schedule_delack(SimTime echo) {
  if (delack_timer_.valid()) return;
  delack_timer_ = endpoint_.tcp_sim().schedule_in(
      sim::SimTime::from_us(500), [this, echo] {
        delack_timer_ = {};
        if (unacked_segments_ > 0) flush_ack(echo);
      });
}

std::uint64_t TcpConnection::bytes_done() const {
  if (sender_) {
    if (snd_una_ == 0) return 0;
    const std::uint64_t acked = snd_una_ - 1;
    return std::min<std::uint64_t>(acked, payload_bytes_);
  }
  return bytes_received_;
}

}  // namespace esim::tcp
