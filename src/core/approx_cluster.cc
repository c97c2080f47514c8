#include "core/approx_cluster.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>

#include "telemetry/fidelity.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace esim::core {

using approx::Direction;
using net::Packet;

ApproxCluster::ApproxCluster(sim::Simulator& sim, std::string name,
                             const Config& config,
                             const approx::MicroModel& ingress_model,
                             const approx::MicroModel& egress_model)
    : Component(sim, std::move(name)),
      config_{config},
      drop_rng_{sim::derive_stream(sim.seed(), sim::StreamTag::drops,
                                   config.cluster)},
      ingress_model_{ingress_model},
      egress_model_{egress_model},
      ingress_features_{config.spec, config.cluster, Direction::Ingress},
      egress_features_{config.spec, config.cluster, Direction::Egress},
      macro_{config.macro},
      controller_{config.tier} {
  config_.spec.validate();
  ingress_model_.reset_state();
  egress_model_.reset_state();
  cores_.resize(config_.spec.cores, nullptr);
  hosts_.resize(config_.spec.hosts_per_cluster(), nullptr);
  core_ports_.assign(config_.spec.cores,
                     DeliverySerializer{config_.port_bandwidth_bps});
  host_ports_.assign(config_.spec.hosts_per_cluster(),
                     DeliverySerializer{config_.port_bandwidth_bps});
  if (config_.fidelity != nullptr && config_.fidelity->config().enabled) {
    // Aggregate boundary capacity: one emulated line-rate port per core
    // uplink plus one per cluster host (the utilization denominator).
    const double capacity_bps =
        config_.port_bandwidth_bps *
        static_cast<double>(config_.spec.cores +
                            config_.spec.hosts_per_cluster());
    probe_ = std::make_unique<telemetry::ClusterFidelityProbe>(
        *config_.fidelity, config_.cluster, capacity_bps, sim.telemetry());
  }
  // Fidelity tiers (DESIGN.md §12): the fluid rate model is built only
  // when the policy can reach it. In adaptive mode the controller steps
  // on the probe's congestion classification, so the observatory is
  // mandatory.
  if (config_.tier.adaptive() || tier() == ClusterTier::Fluid) {
    FluidClusterBackend::Config fcfg;
    fcfg.spec = config_.spec;
    fcfg.bandwidth_bps = config_.port_bandwidth_bps;
    fcfg.window_ns = approx::MacroClassifier::kWindow.ns();
    fluid_.emplace(fcfg);
  }
  if (config_.tier.adaptive() && !probe_) {
    throw std::invalid_argument(
        this->name() +
        ": adaptive tier policy requires the fidelity observatory "
        "(set Config::fidelity to an enabled sink)");
  }
  if (auto* r = sim.telemetry()) {
    const std::string prefix =
        "granularity.c" + std::to_string(config_.cluster);
    g_tier_ = r->gauge(prefix + ".tier");
    g_tier_->set(static_cast<std::int64_t>(tier()));
    if (config_.tier.adaptive()) {
      m_tier_transitions_ = r->counter(prefix + ".transitions");
      m_tier_transitions_total_ = r->counter("granularity.transitions");
    }
  }
  if (auto* r = sim.telemetry()) {
    m_inferences_ = r->counter("approx.inferences");
    m_macro_transitions_ = r->counter("approx.macro_transitions");
    m_inference_ns_ = r->histogram("approx.inference_ns");
    auto* drops = r->counter("approx.predicted_drops");
    auto* backlog = r->counter("approx.backlog_drops");
    auto* egress = r->counter("approx.egress_packets");
    auto* ingress = r->counter("approx.ingress_packets");
    auto* intra = r->counter("approx.intra_packets");
    auto* conflicts = r->counter("approx.conflicts_resolved");
    auto* tp_packet = r->counter("approx.tier_packets.packet");
    auto* tp_ml = r->counter("approx.tier_packets.ml");
    auto* tp_fluid = r->counter("approx.tier_packets.fluid");
    r->add_flusher([this, drops, backlog, egress, ingress, intra, conflicts,
                    tp_packet, tp_ml, tp_fluid] {
      drops->set(stats_.predicted_drops);
      backlog->set(stats_.backlog_drops);
      egress->set(stats_.egress_packets);
      ingress->set(stats_.ingress_packets);
      intra->set(stats_.intra_packets);
      conflicts->set(stats_.conflicts_resolved);
      tp_packet->set(
          stats_.tier_packets[static_cast<std::size_t>(ClusterTier::Packet)]);
      tp_ml->set(
          stats_.tier_packets[static_cast<std::size_t>(ClusterTier::Ml)]);
      tp_fluid->set(
          stats_.tier_packets[static_cast<std::size_t>(ClusterTier::Fluid)]);
    });
  }
}

void ApproxCluster::attach_core(std::uint32_t index,
                                net::Switch* core_switch) {
  cores_.at(index) = core_switch;
}

void ApproxCluster::set_core_remote(std::uint32_t index,
                                    net::RemoteScheduler remote) {
  if (core_remotes_.empty()) core_remotes_.resize(cores_.size());
  core_remotes_.at(index) = std::move(remote);
}

void ApproxCluster::attach_host(net::HostId id, tcp::Host* host) {
  if (config_.spec.cluster_of_host(id) != config_.cluster) {
    throw std::invalid_argument(name() + ": host " + std::to_string(id) +
                                " is not in cluster " +
                                std::to_string(config_.cluster));
  }
  hosts_.at(id % config_.spec.hosts_per_cluster()) = host;
}

void ApproxCluster::start() {
  schedule_in(approx::MacroClassifier::kWindow, [this] {
    const approx::MacroState before = macro_.state();
    macro_.advance_window();
    if (macro_.state() != before) {
      if (m_macro_transitions_ != nullptr) m_macro_transitions_->inc();
      telemetry::trace_instant("approx.macro_transition",
                               static_cast<std::int64_t>(macro_.state()));
    }
    // Fidelity windows piggyback on this timer (they never schedule
    // events of their own — the digest-invariance contract, §11).
    if (probe_) {
      probe_->on_macro_window(now().ns(),
                              approx::MacroClassifier::kWindow.ns());
    }
    // Tier housekeeping (the fluid model expires idle flows), then the
    // controller's transition decision. Every tier decides a packet at
    // its admission, so a switch at this boundary starts the new tier
    // with no in-flight work. The controller's input (the probe's
    // classification) and this timer's firing times are engine-invariant,
    // so sequential and PDES runs transition at identical virtual times
    // (DESIGN.md §12).
    if (tier() == ClusterTier::Fluid) fluid_->on_macro_window(now());
    if (config_.tier.adaptive()) {
      // Packets arriving at exactly this nanosecond are decided by the
      // outgoing tier whichever side of this timer they pop on
      // (tier_for).
      if (const auto next = controller_.step(probe_->state(), now().ns())) {
        ++stats_.tier_transitions;
        if (g_tier_ != nullptr) {
          g_tier_->set(static_cast<std::int64_t>(*next));
          m_tier_transitions_->inc();
          m_tier_transitions_total_->inc();
        }
        telemetry::trace_instant("granularity.transition",
                                 static_cast<std::int64_t>(*next));
        if (*next == ClusterTier::Fluid) fluid_->on_activated(now());
      }
    }
    start();
  });
}

// RNG draw-order contract: with sample_drops, every admitted packet
// consumes exactly one uniform draw from this component's stream at
// admission, in arrival order (handle_packet), and every drop decision
// on that packet replays the pre-drawn value. `draw < p` is precisely
// Rng::bernoulli(p). Threshold mode draws nothing.
bool ApproxCluster::decide_drop(double probability, double draw) const {
  if (config_.sample_drops) return draw < probability;
  return probability > 0.5;
}

void ApproxCluster::handle_packet(Packet pkt) {
  const bool egress =
      config_.spec.cluster_of_host(pkt.flow.src_host) == config_.cluster;
  approx::FeatureExtractor& extractor =
      egress ? egress_features_ : ingress_features_;

  // Features are extracted — and the drop draw consumed — in EVERY
  // tier: the extractor EWMAs stay warm across tier transitions, the
  // shadow probe gets its feature row, and the RNG stream advances one
  // uniform per admitted packet regardless of tier (so the draw-order
  // contract is tier-independent).
  const approx::PacketFeatures features =
      extractor.extract(pkt, now(), macro_.state());
  Admission p;
  p.arrival = now();
  p.egress = egress;
  p.to_core = egress && config_.spec.cluster_of_host(pkt.flow.dst_host) !=
                            config_.cluster;
  if (config_.sample_drops) p.drop_draw = drop_rng_.uniform();

  // The boundary contract: {drop, latency} from the tier in force at the
  // packet's arrival.
  const ClusterTier tier = tier_for(p.arrival);
  bool drop = false;
  double latency = 0.0;  // Packet: the emulated ports do the queueing
  switch (tier) {
    case ClusterTier::Packet:
      break;
    case ClusterTier::Ml: {
      const approx::MicroModel::Prediction prediction =
          infer(egress, features.v);
      drop = decide_drop(prediction.drop_probability, p.drop_draw);
      latency = prediction.latency_seconds;
      break;
    }
    case ClusterTier::Fluid:
      latency = fluid_->admit(pkt, p.arrival);  // never drops
      break;
  }
  p.pkt = std::move(pkt);
  latency = std::max(latency, config_.min_latency_s);
  ++stats_.tier_packets[static_cast<std::size_t>(tier)];
  macro_.observe(latency, drop);
  if (probe_) {
    probe_->observe_packet(p.pkt.size_bytes(), drop);
    // The shadow measures the model's drift, so only a packet the Ml tier
    // decided is compared. It runs BEFORE the production delivery
    // reserves the port, so the queue-truth peek sees the
    // pre-reservation backlog.
    if (tier == ClusterTier::Ml && probe_->shadow_admit(p.pkt.id)) {
      shadow_evaluate(p, features.v, latency, drop);
    }
  }
  if (drop) {
    ++stats_.predicted_drops;
    return;  // TCP on the endpoints recovers, as with a real queue drop
  }
  sim::SimTime desired = p.arrival + sim::SimTime::from_seconds_f(latency);
  // De-phasing skew (DESIGN.md §12): the packet tier's min-latency clamp
  // and the fluid tier's line-rate fallback are quantized, so two
  // clusters can compute deliveries into one core at the SAME nanosecond
  // — and the pop order of same-time cross-partition injections is
  // engine-dependent, which would make the core's queue order (and every
  // digest lane downstream) diverge between sequential and PDES. One
  // nanosecond per cluster index separates them deterministically; the
  // skew only adds delay, so the PDES lookahead bound (delivery delay >=
  // min_latency_s) is untouched. The Ml tier keeps the legacy schedule:
  // its latencies are continuous-valued, so exact ties have measure
  // zero there.
  if (tier != ClusterTier::Ml) {
    desired += sim::SimTime::from_ns(config_.cluster);
  }
  if (p.to_core) {
    ++stats_.egress_packets;
    deliver_egress(std::move(p.pkt), desired);
    return;
  }
  // Intra-cluster traffic of an approximated cluster is normally elided
  // by the workload filter (paper §6.2); when present, the fabric model
  // delivers it directly to the destination host.
  ++(p.egress ? stats_.intra_packets : stats_.ingress_packets);
  deliver_ingress(std::move(p.pkt), desired);
}

approx::MicroModel::Prediction ApproxCluster::infer(
    bool egress, std::span<const double> features) {
  telemetry::Span span{"approx.inference"};
  approx::MicroModel& model = egress ? egress_model_ : ingress_model_;
  const bool timed = m_inferences_ != nullptr;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  const approx::MicroModel::Prediction prediction = model.predict(features);
  if (timed) {
    m_inferences_->inc();
    // Wall-clock inference cost; virtual time is unaffected.
    m_inference_ns_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  return prediction;
}

void ApproxCluster::shadow_evaluate(const Admission& p,
                                    std::span<const double> features,
                                    double model_latency, bool model_drop) {
  // Reference second opinion: the naive Tensor path, which production
  // does not use. Its recurrent state (ref_state_, DESIGN.md §6) is
  // disjoint from the session's, so advancing it here is invisible to
  // the simulation. The reference hidden state only sees
  // the shadow-sampled feature subsequence — this is a drift *indicator*
  // fed the same per-packet features, not a replay of a full reference
  // run. Drop decisions reuse the packet's pre-drawn uniform (common
  // random numbers): disagreement measures the models, not the coin.
  approx::MicroModel& model = p.egress ? egress_model_ : ingress_model_;
  const approx::MicroModel::Prediction ref = model.predict_reference(features);
  const double ref_latency =
      std::max(ref.latency_seconds, config_.min_latency_s);
  const bool ref_drop = decide_drop(ref.drop_probability, p.drop_draw);
  // Queue-model ground truth: the fabric traversal a backlog-aware
  // queue would impose right now — current wait on the port the
  // delivery will reserve plus serialization, floored at the unloaded
  // minimum. next_free() is a read-only peek; nothing is reserved.
  const DeliverySerializer& port =
      p.to_core ? core_ports_[core_index(p.pkt.flow)]
                : host_ports_[host_offset(p.pkt.flow)];
  const sim::SimTime nf = port.next_free();
  const std::int64_t wait_ns = nf > p.arrival ? (nf - p.arrival).ns() : 0;
  const bool queue_drop = wait_ns > config_.max_port_backlog.ns();
  const double tx_s = static_cast<double>(p.pkt.size_bytes()) * 8.0 /
                      config_.port_bandwidth_bps;
  const double queue_latency = std::max(
      config_.min_latency_s, static_cast<double>(wait_ns) * 1e-9 + tx_s);
  probe_->record_shadow(model_drop, model_latency, ref_drop, ref_latency,
                        queue_drop, queue_latency);
}

void ApproxCluster::finalize_fidelity() {
  if (probe_) probe_->finalize(now().ns());
}

std::uint32_t ApproxCluster::core_index(const net::FlowKey& flow) const {
  const auto path = net::compute_path(config_.spec, flow);
  if (path.len != 5) {
    throw std::logic_error(name() + ": egress packet without a core hop");
  }
  return path.hops[2] - config_.spec.core_id(0);
}

std::optional<sim::SimTime> ApproxCluster::reserve(DeliverySerializer& port,
                                                   sim::SimTime desired,
                                                   std::uint32_t bytes) {
  const auto granted =
      port.try_reserve(desired, bytes, config_.max_port_backlog);
  if (!granted) {
    ++stats_.backlog_drops;
    if (probe_) probe_->observe_backlog(0, /*backlog_drop=*/true);
    return std::nullopt;
  }
  if (*granted != desired) ++stats_.conflicts_resolved;
  if (probe_) {
    probe_->observe_backlog((*granted - desired).ns(),
                            /*backlog_drop=*/false);
  }
  return granted;
}

void ApproxCluster::deliver_egress(Packet pkt, sim::SimTime desired) {
  const std::uint32_t index = core_index(pkt.flow);
  net::Switch* core = cores_.at(index);
  if (core == nullptr) {
    throw std::logic_error(name() + ": core " + std::to_string(index) +
                           " not attached");
  }
  const auto granted = reserve(core_ports_[index], desired, pkt.size_bytes());
  if (!granted) return;
  auto deliver = [core, pkt = std::move(pkt)]() mutable {
    core->handle_packet(std::move(pkt));
  };
  if (index < core_remotes_.size() && core_remotes_[index]) {
    core_remotes_[index](*granted, /*key=*/0, std::move(deliver));
  } else {
    schedule_at(*granted, std::move(deliver));
  }
}

void ApproxCluster::deliver_ingress(Packet pkt, sim::SimTime desired) {
  const std::uint32_t offset = host_offset(pkt.flow);
  tcp::Host* host = hosts_.at(offset);
  if (host == nullptr) {
    throw std::logic_error(name() + ": host offset " +
                           std::to_string(offset) + " not attached");
  }
  const auto granted = reserve(host_ports_[offset], desired, pkt.size_bytes());
  if (!granted) return;
  schedule_at(*granted, [host, pkt = std::move(pkt)]() mutable {
    host->handle_packet(std::move(pkt));
  });
}

}  // namespace esim::core
