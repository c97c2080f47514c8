#include "core/approx_cluster.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>

#include "core/granularity.h"
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
      ingress_model_{ingress_model},
      egress_model_{egress_model},
      ingress_features_{config.spec, config.cluster, Direction::Ingress},
      egress_features_{config.spec, config.cluster, Direction::Egress},
      macro_{config.macro} {
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
  // Fidelity tiers (DESIGN.md §12): the Ml and Packet backends are
  // always available; the fluid rate model is built only when the
  // policy can reach it. In adaptive mode the controller reads the
  // probe's congestion classification, so the observatory is mandatory.
  tier_ = config_.tier.fixed_tier;
  ml_backend_ = std::make_unique<MlTierBackend>(
      &ingress_model_, &egress_model_, config_.sample_drops,
      config_.reference_inference);
  packet_backend_ = std::make_unique<PacketTierBackend>();
  if (config_.tier.adaptive() || tier_ == ClusterTier::Fluid) {
    FluidClusterBackend::Config fcfg;
    fcfg.spec = config_.spec;
    fcfg.bandwidth_bps = config_.port_bandwidth_bps;
    fcfg.window_ns = approx::MacroClassifier::kWindow.ns();
    fluid_backend_ = std::make_unique<FluidClusterBackend>(fcfg);
  }
  if (config_.tier.adaptive()) {
    if (!probe_) {
      throw std::invalid_argument(
          this->name() +
          ": adaptive tier policy requires the fidelity observatory "
          "(set Config::fidelity to an enabled sink)");
    }
    controller_ = std::make_unique<GranularityController>(
        config_.tier, config_.cluster, probe_.get(), sim.telemetry());
  } else if (auto* r = sim.telemetry()) {
    r->gauge("granularity.c" + std::to_string(config_.cluster) + ".tier")
        ->set(static_cast<std::int64_t>(tier_));
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

ApproxCluster::~ApproxCluster() = default;

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
    // Tier housekeeping on the active backend (e.g. the fluid model
    // expires idle flows), then the controller's transition decision.
    // Every tier decides a packet at its admission, so a switch at this
    // boundary starts the new tier with no in-flight work. The
    // controller's inputs (probe EWMAs) and this timer's firing times are
    // engine-invariant, so sequential and PDES runs transition at
    // identical virtual times (DESIGN.md §12).
    active_backend().on_macro_window(now());
    if (controller_) {
      if (const auto next = controller_->on_macro_window(now().ns())) {
        // Packets arriving at exactly this nanosecond are decided by the
        // outgoing tier whichever side of this timer they pop on
        // (tier_for).
        pre_transition_tier_ = tier_;
        transition_at_ns_ = now().ns();
        tier_ = *next;
        ++stats_.tier_transitions;
        telemetry::trace_instant("granularity.transition",
                                 static_cast<std::int64_t>(tier_));
        active_backend().on_activated(now());
      }
    }
    start();
  });
}

ClusterBackend& ApproxCluster::backend_for(ClusterTier tier) {
  switch (tier) {
    case ClusterTier::Packet:
      return *packet_backend_;
    case ClusterTier::Fluid:
      return *fluid_backend_;
    case ClusterTier::Ml:
      break;
  }
  return *ml_backend_;
}

const std::vector<TierTransition>& ApproxCluster::tier_trace() const {
  static const std::vector<TierTransition> kEmpty;
  return controller_ ? controller_->transitions() : kEmpty;
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
  const std::uint32_t src_cluster =
      config_.spec.cluster_of_host(pkt.flow.src_host);
  const std::uint32_t dst_cluster =
      config_.spec.cluster_of_host(pkt.flow.dst_host);

  const bool egress = src_cluster == config_.cluster;
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
  p.dst_cluster = dst_cluster;
  if (config_.sample_drops) p.drop_draw = rng().uniform();

  const AdmitContext ctx{pkt, p.arrival, egress,
                         std::span<const double>{features.v}, p.drop_draw};
  const ClusterTier tier = tier_for(p.arrival);
  TierDecision decision;
  if (tier == ClusterTier::Ml) {
    if (m_inferences_ != nullptr) {
      telemetry::Span span{"approx.inference"};
      const auto t0 = std::chrono::steady_clock::now();
      decision = ml_backend_->admit(ctx);
      m_inferences_->inc();
      // Wall-clock inference cost; virtual time is unaffected.
      m_inference_ns_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    } else {
      telemetry::Span span{"approx.inference"};
      decision = ml_backend_->admit(ctx);
    }
  } else {
    decision = backend_for(tier).admit(ctx);
  }
  p.pkt = std::move(pkt);
  apply_decision(std::move(p), tier, decision,
                 std::span<const double>{features.v});
}

void ApproxCluster::apply_decision(Admission&& p, ClusterTier tier,
                                   TierDecision decision,
                                   std::span<const double> features) {
  const double latency = std::max(decision.latency_s, config_.min_latency_s);
  const bool drop = decision.drop;
  ++stats_.tier_packets[static_cast<std::size_t>(tier)];
  macro_.observe(latency, drop);
  if (probe_) {
    probe_->observe_packet(p.pkt.size_bytes(), drop);
    // The shadow measures the model's drift, so only a packet the Ml tier
    // decided is compared. It runs BEFORE the production delivery
    // reserves the port, so the queue-truth peek sees the
    // pre-reservation backlog.
    if (tier == ClusterTier::Ml && probe_->shadow_admit(p.pkt.id)) {
      shadow_evaluate(p, features, latency, drop);
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
  if (p.egress && p.dst_cluster == config_.cluster) {
    // Intra-cluster traffic of an approximated cluster. Normally elided
    // by the workload filter (paper §6.2); when present, the fabric model
    // delivers it directly to the destination host.
    ++stats_.intra_packets;
    deliver_ingress(std::move(p.pkt), desired);
    return;
  }
  if (p.egress) {
    ++stats_.egress_packets;
    deliver_egress(std::move(p.pkt), desired);
  } else {
    ++stats_.ingress_packets;
    deliver_ingress(std::move(p.pkt), desired);
  }
}

void ApproxCluster::shadow_evaluate(const Admission& p,
                                    std::span<const double> features,
                                    double model_latency, bool model_drop) {
  // Reference second opinion: whichever inference path production does
  // NOT use. Its recurrent state is disjoint from the production path's
  // (session vs ref_state_, DESIGN.md §6), so advancing it here is
  // invisible to the simulation. The reference hidden state only sees
  // the shadow-sampled feature subsequence — this is a drift *indicator*
  // fed the same per-packet features, not a replay of a full reference
  // run. Drop decisions reuse the packet's pre-drawn uniform (common
  // random numbers): disagreement measures the models, not the coin.
  approx::MicroModel& model = p.egress ? egress_model_ : ingress_model_;
  const approx::MicroModel::Prediction ref =
      config_.reference_inference ? model.predict(features)
                                  : model.predict_reference(features);
  const double ref_latency =
      std::max(ref.latency_seconds, config_.min_latency_s);
  const bool ref_drop = decide_drop(ref.drop_probability, p.drop_draw);
  // Queue-model ground truth: the fabric traversal a backlog-aware
  // queue would impose right now — current wait on the destination port
  // plus serialization, floored at the unloaded minimum. next_free() is
  // a read-only peek; nothing is reserved.
  const DeliverySerializer* port = nullptr;
  if (p.egress && p.dst_cluster != config_.cluster) {
    const auto path = net::compute_path(config_.spec, p.pkt.flow);
    if (path.len == 5) {
      port = &core_ports_[path.hops[2] - config_.spec.core_id(0)];
    }
  } else {
    port = &host_ports_[p.pkt.flow.dst_host %
                        config_.spec.hosts_per_cluster()];
  }
  bool queue_drop = false;
  double queue_latency = config_.min_latency_s;
  if (port != nullptr) {
    const sim::SimTime nf = port->next_free();
    const std::int64_t wait_ns =
        nf > p.arrival ? (nf - p.arrival).ns() : 0;
    queue_drop = wait_ns > config_.max_port_backlog.ns();
    const double tx_s = static_cast<double>(p.pkt.size_bytes()) * 8.0 /
                        config_.port_bandwidth_bps;
    queue_latency = std::max(config_.min_latency_s,
                             static_cast<double>(wait_ns) * 1e-9 + tx_s);
  }
  probe_->record_shadow(model_drop, model_latency, ref_drop, ref_latency,
                        queue_drop, queue_latency);
}

void ApproxCluster::finalize_fidelity() {
  if (probe_) probe_->finalize(now().ns());
}

void ApproxCluster::deliver_egress(Packet pkt, sim::SimTime desired) {
  const auto path = net::compute_path(config_.spec, pkt.flow);
  if (path.len != 5) {
    throw std::logic_error(name() + ": egress packet without a core hop");
  }
  const std::uint32_t core_index =
      path.hops[2] - config_.spec.core_id(0);
  net::Switch* core = cores_.at(core_index);
  if (core == nullptr) {
    throw std::logic_error(name() + ": core " + std::to_string(core_index) +
                           " not attached");
  }
  const auto granted = core_ports_[core_index].try_reserve(
      desired, pkt.size_bytes(), config_.max_port_backlog);
  if (!granted) {
    ++stats_.backlog_drops;
    if (probe_) probe_->observe_backlog(0, /*backlog_drop=*/true);
    return;
  }
  if (*granted != desired) ++stats_.conflicts_resolved;
  if (probe_) {
    probe_->observe_backlog((*granted - desired).ns(),
                            /*backlog_drop=*/false);
  }
  auto deliver = [core, pkt = std::move(pkt)]() mutable {
    core->handle_packet(std::move(pkt));
  };
  if (core_index < core_remotes_.size() && core_remotes_[core_index]) {
    core_remotes_[core_index](*granted, /*key=*/0, std::move(deliver));
  } else {
    schedule_at(*granted, std::move(deliver));
  }
}

void ApproxCluster::deliver_ingress(Packet pkt, sim::SimTime desired) {
  const std::uint32_t offset =
      pkt.flow.dst_host % config_.spec.hosts_per_cluster();
  tcp::Host* host = hosts_.at(offset);
  if (host == nullptr) {
    throw std::logic_error(name() + ": host offset " +
                           std::to_string(offset) + " not attached");
  }
  const auto granted = host_ports_[offset].try_reserve(
      desired, pkt.size_bytes(), config_.max_port_backlog);
  if (!granted) {
    ++stats_.backlog_drops;
    if (probe_) probe_->observe_backlog(0, /*backlog_drop=*/true);
    return;
  }
  if (*granted != desired) ++stats_.conflicts_resolved;
  if (probe_) {
    probe_->observe_backlog((*granted - desired).ns(),
                            /*backlog_drop=*/false);
  }
  schedule_at(*granted, [host, pkt = std::move(pkt)]() mutable {
    host->handle_packet(std::move(pkt));
  });
}

}  // namespace esim::core
