#include "check/hybrid_diff.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "check/diff_runner.h"
#include "core/network.h"
#include "sim/parallel.h"
#include "sim/random.h"

namespace esim::check {
namespace {

/// run_hybrid, appending the digest to `log` when non-null.
Digest logged_run(std::vector<Digest>* log, const HybridScenario& sc,
                  std::uint32_t partitions, bool batching,
                  telemetry::FidelitySink* fidelity = nullptr,
                  TierTraces* traces = nullptr) {
  Digest d = run_hybrid(sc, partitions, batching, fidelity, traces);
  if (log != nullptr) log->push_back(d);
  return d;
}

}  // namespace

core::HybridConfig HybridScenario::hybrid_config(bool batching) const {
  core::HybridConfig cfg;
  cfg.net.spec.clusters = clusters;
  cfg.net.spec.tors_per_cluster = tors_per_cluster;
  cfg.net.spec.aggs_per_cluster = aggs_per_cluster;
  cfg.net.spec.hosts_per_tor = hosts_per_tor;
  cfg.net.spec.cores = cores;
  cfg.approx.sample_drops = sample_drops;
  cfg.approx.min_latency_s = min_latency_us * 1e-6;
  cfg.approx.max_port_backlog =
      sim::SimTime::from_ns(static_cast<std::int64_t>(max_port_backlog_us * 1e3));
  if (batching) {
    cfg.approx.batch_max = batch_max;
    cfg.approx.batch_window = sim::SimTime::from_ns(batch_window_ns);
  }
  if (adaptive_tiers) {
    cfg.approx.tier.mode = core::ClusterTierPolicy::Mode::Adaptive;
    cfg.approx.tier.fixed_tier = core::ClusterTier::Ml;  // initial tier
    cfg.approx.tier.min_dwell_windows = min_dwell_windows;
  } else {
    cfg.approx.tier.fixed_tier = fixed_tier;
  }
  return cfg;
}

/// FidelityConfig for the internal sink run_hybrid attaches when a
/// scenario demands adaptive tiers but the caller brought no sink:
/// congestion tracking only (no shadow sampling, no JSONL) with the
/// scenario's classification thresholds.
static telemetry::FidelityConfig granularity_fidelity_config(
    const HybridScenario& sc) {
  telemetry::FidelityConfig fcfg;
  fcfg.enabled = true;
  fcfg.sample_period = 0;  // keep congestion tracking, skip shadow cost
  fcfg.quiescent_util = sc.quiescent_util;
  fcfg.congested_util = sc.congested_util;
  fcfg.congested_drop_rate = sc.congested_drop_rate;
  fcfg.ewma_alpha = sc.classify_ewma_alpha;
  return fcfg;
}

approx::MicroModel HybridScenario::make_model(std::uint64_t seed_offset) const {
  approx::MicroModel::Config mcfg;
  mcfg.hidden = model_hidden;
  mcfg.layers = model_layers;
  mcfg.seed = model_seed + seed_offset;
  approx::MicroModel m{mcfg};
  // Seeded random trunk/head weights give feature-dependent predictions;
  // the bias pins the baseline drop rate, and the normalization places
  // latencies around latency_mean_us (with some below the configured
  // floor, exercising the min-latency clamp).
  m.drop_head().bias().at(0, 0) = drop_bias;
  m.set_latency_normalization(std::log(latency_mean_us), latency_std);
  m.recompile();  // the bias write above bypassed the compiled snapshot
  return m;
}

void HybridScenario::validate() const {
  if (clusters < 2) {
    throw std::invalid_argument("HybridScenario: need >= 2 clusters");
  }
  if (tors_per_cluster == 0 || aggs_per_cluster == 0 || hosts_per_tor == 0 ||
      cores == 0) {
    throw std::invalid_argument("HybridScenario: empty topology dimension");
  }
  if (latency_mean_us <= 0.0 || latency_std <= 0.0 || min_latency_us <= 0.0) {
    throw std::invalid_argument("HybridScenario: non-positive latency knob");
  }
  if (batch_max < 2 || batch_window_ns <= 0) {
    throw std::invalid_argument("HybridScenario: degenerate batch config");
  }
  if (static_cast<double>(batch_window_ns + lookahead_ns) >
      min_latency_us * 1e3) {
    throw std::invalid_argument(
        "HybridScenario: batch_window + lookahead exceeds min latency");
  }
  std::set<std::int64_t> starts;
  std::set<std::uint64_t> ids;
  for (const FlowSpec& f : flows) {
    if (f.src >= total_hosts() || f.dst >= total_hosts() || f.src == f.dst) {
      throw std::invalid_argument("HybridScenario: bad flow endpoints");
    }
    if (f.bytes == 0 || f.start_ns < 0 || f.start_ns >= duration_ns) {
      throw std::invalid_argument("HybridScenario: bad flow size/start");
    }
    if (!starts.insert(f.start_ns).second) {
      throw std::invalid_argument("HybridScenario: duplicate start time");
    }
    if (!ids.insert(f.flow_id).second) {
      throw std::invalid_argument("HybridScenario: duplicate flow id");
    }
  }
}

std::string HybridScenario::summary() const {
  std::ostringstream os;
  os << clusters << " clusters x " << tors_per_cluster * hosts_per_tor
     << " hosts, " << flows.size() << " flows, batch " << batch_max << "/"
     << batch_window_ns << "ns, minlat " << min_latency_us << "us, bias "
     << drop_bias << ", " << duration_ns / 1'000'000.0 << "ms";
  return os.str();
}

HybridScenario random_hybrid_scenario(std::uint64_t scenario_seed) {
  // Seeds feed the engine (component RNG forks); keep them odd and
  // decorrelated from the scenario-shape draws.
  sim::Rng rng{scenario_seed * 2 + 1};
  HybridScenario sc;
  sc.seed = scenario_seed + 11;
  sc.clusters = 3 + static_cast<std::uint32_t>(rng.uniform_int(2));
  sc.cores = 2;
  sc.model_seed = rng.uniform_int(1'000) + 1;
  // Mostly gentle drop baselines (sampled rates ~5-20%); one scenario in
  // four sits near the threshold so p > 0.5 drops fire deterministically
  // in the cross-engine comparison too.
  sc.drop_bias = rng.uniform_int(4) == 0 ? 0.2 : -3.0 + rng.uniform() * 1.5;
  sc.latency_mean_us = 5.0 + rng.uniform() * 5.0;
  sc.latency_std = 0.2 + rng.uniform() * 0.3;
  sc.min_latency_us = 4.0 + rng.uniform() * 2.0;
  sc.max_port_backlog_us = 20.0 + rng.uniform() * 20.0;
  sc.lookahead_ns = 1'000;
  const std::size_t batch_choices[] = {4, 8, 16};
  sc.batch_max = batch_choices[rng.uniform_int(3)];
  const std::int64_t max_window =
      static_cast<std::int64_t>(sc.min_latency_us * 1e3) - sc.lookahead_ns;
  sc.batch_window_ns =
      1'000 + static_cast<std::int64_t>(rng.uniform_int(
                  static_cast<std::uint64_t>(max_window - 1'000)));
  sc.duration_ns = 2'000'000 + static_cast<std::int64_t>(
                                   rng.uniform_int(1'000'000));

  const std::uint32_t hosts = sc.total_hosts();
  const std::uint64_t n_flows = 6 + rng.uniform_int(9);
  for (std::uint64_t k = 0; k < n_flows; ++k) {
    FlowSpec f;
    f.src = static_cast<net::HostId>(rng.uniform_int(hosts));
    do {
      f.dst = static_cast<net::HostId>(rng.uniform_int(hosts));
    } while (f.dst == f.src);
    f.bytes = (4 + rng.uniform_int(40)) * 1'400;
    // Strictly increasing starts: spacing exceeds the jitter range, so
    // start times are globally unique by construction.
    f.start_ns = 10'000 + static_cast<std::int64_t>(k) * 3'000 +
                 static_cast<std::int64_t>(rng.uniform_int(2'000));
    f.flow_id = k + 1;
    sc.flows.push_back(f);
  }
  sc.validate();
  return sc;
}

HybridScenario random_granularity_scenario(std::uint64_t scenario_seed) {
  sim::Rng rng{scenario_seed * 2 + 1};
  HybridScenario sc;
  sc.seed = scenario_seed + 17;
  sc.clusters = 3 + static_cast<std::uint32_t>(rng.uniform_int(2));
  sc.cores = 2;
  sc.model_seed = rng.uniform_int(1'000) + 1;
  sc.drop_bias = -3.0 + rng.uniform() * 1.0;
  sc.latency_mean_us = 5.0 + rng.uniform() * 3.0;
  sc.latency_std = 0.2 + rng.uniform() * 0.2;
  sc.min_latency_us = 4.0 + rng.uniform() * 2.0;
  sc.max_port_backlog_us = 25.0 + rng.uniform() * 15.0;
  sc.lookahead_ns = 1'000;
  sc.batch_max = 8;
  sc.batch_window_ns =
      1'500 + static_cast<std::int64_t>(rng.uniform_int(1'000));

  sc.adaptive_tiers = true;
  sc.min_dwell_windows = 2 + static_cast<std::uint32_t>(rng.uniform_int(2));
  // Classification thresholds sized to this corpus: the aggregate
  // boundary capacity of a cluster here is ~100 Gbps while a handful of
  // ramping TCP flows offer a few hundred Mbps per 100 us window, so the
  // FidelityConfig defaults (2% / 50%) would classify everything as
  // quiescent forever. A fast EWMA makes the silence demote and the
  // burst promote within a few windows.
  sc.quiescent_util = 1e-4;
  sc.congested_util = 1.5e-3 + rng.uniform() * 1.5e-3;
  sc.congested_drop_rate = 0.5;  // classification is utilization-driven
  sc.classify_ewma_alpha = 0.6;
  sc.duration_ns =
      4'000'000 + static_cast<std::int64_t>(rng.uniform_int(1'000'000));

  // Quiescent-heavy shape: sparse early cross-cluster flows, a long
  // silence (the demotion trigger), one incast burst into an
  // approximated cluster (the promotion trigger), then a quiet tail.
  const std::uint32_t hosts = sc.total_hosts();
  const std::uint32_t hosts_per_cluster =
      sc.tors_per_cluster * sc.hosts_per_tor;
  std::uint64_t flow_id = 1;
  std::int64_t t = 10'000;
  const std::uint64_t early = 3 + rng.uniform_int(4);
  for (std::uint64_t k = 0; k < early; ++k) {
    FlowSpec f;
    f.src = static_cast<net::HostId>(rng.uniform_int(hosts));
    do {
      f.dst = static_cast<net::HostId>(rng.uniform_int(hosts));
    } while (f.dst == f.src);
    f.bytes = (6 + rng.uniform_int(16)) * 1'400;
    f.start_ns = t;
    t += 60'000 + static_cast<std::int64_t>(rng.uniform_int(50'000));
    f.flow_id = flow_id++;
    sc.flows.push_back(f);
  }
  // Silence, then the burst: fan-in to hosts of one approximated
  // cluster (index >= 1; cluster 0 stays full-fidelity).
  const std::uint32_t target =
      1 + static_cast<std::uint32_t>(rng.uniform_int(sc.clusters - 1));
  std::int64_t burst_t = std::max<std::int64_t>(
      t + 400'000, 2'400'000 + static_cast<std::int64_t>(
                                   rng.uniform_int(200'000)));
  const std::uint64_t burst = 8 + rng.uniform_int(7);
  for (std::uint64_t k = 0; k < burst; ++k) {
    FlowSpec f;
    f.dst = static_cast<net::HostId>(target * hosts_per_cluster +
                                     rng.uniform_int(hosts_per_cluster));
    do {
      f.src = static_cast<net::HostId>(rng.uniform_int(hosts));
    } while (f.src == f.dst);
    f.bytes = (20 + rng.uniform_int(30)) * 1'400;
    f.start_ns = burst_t;
    burst_t += 2'000 + static_cast<std::int64_t>(rng.uniform_int(1'500));
    f.flow_id = flow_id++;
    sc.flows.push_back(f);
  }
  sc.validate();
  return sc;
}

Digest run_hybrid(const HybridScenario& sc, std::uint32_t partitions,
                  bool batching, telemetry::FidelitySink* fidelity,
                  TierTraces* traces) {
  sc.validate();
  const approx::MicroModel ingress = sc.make_model(0);
  const approx::MicroModel egress = sc.make_model(7);
  const auto end = sim::SimTime::from_ns(sc.duration_ns);
  StateDigest digest;
  // Divergence localization hook: ESIM_CAPTURE=<file> dumps every
  // per-link packet record after the run (set it around two run_hybrid
  // calls and diff the files to find the first divergent record).
  const char* cap_file = std::getenv("ESIM_CAPTURE");
  if (cap_file != nullptr) digest.enable_capture();
  const auto dump_capture = [&] {
    if (cap_file == nullptr) return;
    std::ofstream out{cap_file};
    for (const auto& [link, recs] : digest.captured()) {
      for (const auto& r : recs) out << link << " | " << r.to_string() << "\n";
    }
  };

  // The adaptive controller needs its congestion signal: attach an
  // internal tracking-only sink when the caller brought none.
  std::unique_ptr<telemetry::FidelitySink> internal_sink;
  if (sc.adaptive_tiers && fidelity == nullptr) {
    internal_sink = std::make_unique<telemetry::FidelitySink>(
        granularity_fidelity_config(sc));
    fidelity = internal_sink.get();
  }

  core::HybridConfig cfg_h = sc.hybrid_config(batching);
  cfg_h.approx.fidelity = fidelity;
  const auto finalize_probes =
      [&](const std::vector<core::ApproxCluster*>& clusters) {
        for (auto* c : clusters) {
          if (c != nullptr) {
            c->flush_batch();
            c->finalize_fidelity();
            // Fold the transition trace into the engine-invariant tier
            // lane (and export it for element-wise comparison).
            for (const core::TierTransition& t : c->tier_trace()) {
              digest.on_tier_transition(c->cluster_id(), t.t_ns,
                                        static_cast<std::uint8_t>(t.from),
                                        static_cast<std::uint8_t>(t.to));
            }
            if (traces != nullptr) {
              (*traces)[c->cluster_id()] = c->tier_trace();
            }
          }
        }
      };

  if (partitions == 0) {
    sim::Simulator sim{sc.seed};
    auto net = core::build_hybrid_network(sim, cfg_h, ingress, egress);
    digest.attach(sim);
    const std::vector<std::uint32_t> owner(sc.total_hosts(), 0);
    inject_flows(sim, sc.flows, net.hosts, owner, 0, digest);
    sim.run_until(end);
    finalize_probes(net.clusters);
    dump_capture();
    return digest.finalize();
  }

  sim::ParallelEngine::Config cfg;
  cfg.num_partitions = partitions;
  cfg.lookahead = sim::SimTime::from_ns(sc.lookahead_ns);
  cfg.seed = sc.seed;
  sim::ParallelEngine engine{cfg};
  auto out = core::build_hybrid_network_partitioned(engine, cfg_h, ingress,
                                                    egress);
  digest.attach(engine);
  for (std::uint32_t p = 0; p < engine.num_partitions(); ++p) {
    inject_flows(engine.partition(p).sim(), sc.flows, out.net.hosts,
                 out.partition_of_host, p, digest);
  }
  engine.run_until(end);
  finalize_probes(out.net.clusters);
  dump_capture();
  return digest.finalize();
}

std::string check_hybrid(const HybridScenario& sc,
                         const std::vector<std::uint32_t>& partitions,
                         std::vector<Digest>* digests_out) {
  std::ostringstream os;

  // A. RNG draw-order contract: same engine, batching on vs off, drops
  // sampled from the cluster's private stream. Creation order (and so
  // every forked stream) is identical across the two runs, so any
  // divergence is a real draw-order or outcome-replay bug.
  HybridScenario sampled = sc;
  sampled.sample_drops = true;
  const Digest seq_off =
      logged_run(digests_out, sampled, 0, /*batching=*/false);
  const Digest seq_on = logged_run(digests_out, sampled, 0, /*batching=*/true);
  if (!seq_off.engine_invariant_equal(seq_on)) {
    os << "sequential batching off vs on DIVERGED (sampled drops)\n"
       << "  off: " << seq_off.to_string() << "\n"
       << "  on:  " << seq_on.to_string();
    return os.str();
  }

  // B. Engine equivalence with coalescing active on both sides. Threshold
  // drops only: sequential and PDES builds fork component RNGs from
  // different roots, so sampled draws differ by construction, not by bug.
  HybridScenario threshold = sc;
  threshold.sample_drops = false;
  const Digest seq = logged_run(digests_out, threshold, 0, /*batching=*/true);
  for (const std::uint32_t p : partitions) {
    const Digest pdes =
        logged_run(digests_out, threshold, p, /*batching=*/true);
    if (!seq.engine_invariant_equal(pdes)) {
      os << "sequential vs pdes(" << p
         << ") DIVERGED with batching active (threshold drops)\n"
         << "  sequential: " << seq.to_string() << "\n"
         << "  pdes(" << p << "): " << pdes.to_string();
      return os.str();
    }
  }
  return {};
}

std::string check_fidelity(const HybridScenario& sc,
                           const std::vector<std::uint32_t>& partitions,
                           std::uint64_t* rows_out,
                           std::uint64_t* shadow_out,
                           std::vector<Digest>* digests_out) {
  // Sampled drops everywhere: each comparison pairs two runs of ONE
  // engine config, so the RNG forks coincide and a divergence can only
  // come from the observatory touching simulation state.
  HybridScenario sampled = sc;
  sampled.sample_drops = true;

  telemetry::FidelityConfig fcfg;
  fcfg.enabled = true;
  fcfg.sample_period = 16;  // dense enough that small scenarios shadow

  std::uint64_t rows = 0;
  std::uint64_t shadow = 0;
  const auto compare = [&](std::uint32_t p,
                           bool batching) -> std::string {
    const Digest off = logged_run(digests_out, sampled, p, batching);
    telemetry::FidelitySink sink{fcfg};
    const Digest on = logged_run(digests_out, sampled, p, batching, &sink);
    rows += sink.rows_appended();
    for (const auto& s : sink.summaries()) shadow += s.shadow_samples;
    if (off == on) return {};
    std::ostringstream os;
    os << (p == 0 ? std::string{"sequential"}
                  : "pdes(" + std::to_string(p) + ")")
       << (batching ? " batched" : " unbatched")
       << ": fidelity off vs on DIVERGED\n"
       << "  off: " << off.to_string() << "\n"
       << "  on:  " << on.to_string();
    return os.str();
  };

  if (auto err = compare(0, /*batching=*/false); !err.empty()) return err;
  if (auto err = compare(0, /*batching=*/true); !err.empty()) return err;
  for (const std::uint32_t p : partitions) {
    if (auto err = compare(p, /*batching=*/true); !err.empty()) return err;
  }
  if (rows_out != nullptr) *rows_out += rows;
  if (shadow_out != nullptr) *shadow_out += shadow;
  return {};
}

namespace {

std::string describe_traces(const TierTraces& want, const TierTraces& got) {
  std::ostringstream os;
  const auto dump = [&os](const char* tag, const TierTraces& t) {
    os << "  " << tag << ":";
    for (const auto& [cluster, trace] : t) {
      os << " c" << cluster << "=[";
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i > 0) os << " ";
        os << trace[i].t_ns << "ns:" << core::to_string(trace[i].from)
           << ">" << core::to_string(trace[i].to);
      }
      os << "]";
    }
    os << "\n";
  };
  dump("want", want);
  dump("got ", got);
  return os.str();
}

}  // namespace

std::string check_granularity(const HybridScenario& sc,
                              const std::vector<std::uint32_t>& partitions,
                              std::uint64_t* transitions_out,
                              std::vector<Digest>* digests_out) {
  std::ostringstream os;
  HybridScenario adaptive = sc;
  adaptive.adaptive_tiers = true;

  // A. Draw-order contract with the controller in the loop: batching off
  // vs on, one engine, sampled drops. Every tier extracts features and
  // consumes the drop draw at admission, so the RNG cadence — and
  // therefore every outcome — must not depend on coalescing.
  HybridScenario sampled = adaptive;
  sampled.sample_drops = true;
  TierTraces tr_off;
  TierTraces tr_on;
  const Digest seq_off = logged_run(digests_out, sampled, 0,
                                    /*batching=*/false, nullptr, &tr_off);
  const Digest seq_on = logged_run(digests_out, sampled, 0,
                                   /*batching=*/true, nullptr, &tr_on);
  if (!seq_off.engine_invariant_equal(seq_on)) {
    os << "adaptive sequential batching off vs on DIVERGED (sampled drops)\n"
       << "  off: " << seq_off.to_string() << "\n"
       << "  on:  " << seq_on.to_string();
    return os.str();
  }
  if (tr_off != tr_on) {
    os << "adaptive sequential batching off vs on: tier-transition traces "
          "DIVERGED\n"
       << describe_traces(tr_off, tr_on);
    return os.str();
  }

  // B. Engine equivalence with the controller on: sequential vs PDES,
  // threshold drops (cross-engine RNG forks differ by construction),
  // batching active. The digest tier lane catches divergence, but the
  // element-wise trace comparison localizes it to a cluster and a
  // virtual time.
  HybridScenario threshold = adaptive;
  threshold.sample_drops = false;
  TierTraces tr_seq;
  const Digest seq = logged_run(digests_out, threshold, 0,
                                /*batching=*/true, nullptr, &tr_seq);
  if (transitions_out != nullptr) *transitions_out += seq.transitions;
  for (const std::uint32_t p : partitions) {
    TierTraces tr_p;
    const Digest pdes = logged_run(digests_out, threshold, p,
                                   /*batching=*/true, nullptr, &tr_p);
    if (!seq.engine_invariant_equal(pdes)) {
      os << "adaptive sequential vs pdes(" << p
         << ") DIVERGED (threshold drops)\n"
         << "  sequential: " << seq.to_string() << "\n"
         << "  pdes(" << p << "): " << pdes.to_string();
      return os.str();
    }
    if (tr_seq != tr_p) {
      os << "adaptive sequential vs pdes(" << p
         << "): tier-transition traces DIVERGED\n"
         << describe_traces(tr_seq, tr_p);
      return os.str();
    }
  }
  return {};
}

}  // namespace esim::check
