#include "check/fuzzer.h"

#include <algorithm>
#include <set>

namespace esim::check {
namespace {

constexpr std::uint64_t kMss = 1460;
/// Shrinking stops after this many predicate evaluations.
constexpr int kMaxShrinkEvals = 160;

bool is_valid(const Scenario& sc) {
  try {
    sc.validate();
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

Scenario ScenarioFuzzer::next() {
  Scenario sc;
  // The engine seed (sim::derive_stream's input), odd and non-zero.
  sc.seed = rng_.next_u64() | 1;
  sc.tors = 2 + static_cast<std::uint32_t>(rng_.uniform_int(3));       // 2..4
  sc.spines = 1 + static_cast<std::uint32_t>(rng_.uniform_int(4));     // 1..4
  sc.hosts_per_tor = 1 + static_cast<std::uint32_t>(rng_.uniform_int(3));

  // Queue depth spans "never drops" down to "drops under any incast".
  static constexpr std::uint32_t kQueues[] = {12'000, 30'000, 60'000,
                                              150'000};
  sc.queue_bytes = kQueues[rng_.uniform_int(std::size(kQueues))];

  switch (rng_.uniform_int(3)) {
    case 0: sc.tcp = TcpVariant::NewReno; break;
    case 1: sc.tcp = TcpVariant::DelayedAck; break;
    default: sc.tcp = TcpVariant::Dctcp; break;
  }
  sc.ecn_threshold =
      sc.tcp == TcpVariant::Dctcp ? std::min(30'000u, sc.queue_bytes / 2) : 0;

  sc.duration_ns = 2'000'000 + static_cast<std::int64_t>(
                                   rng_.uniform_int(3) * 1'000'000);

  const std::uint32_t n_flows =
      options_.min_flows +
      static_cast<std::uint32_t>(
          rng_.uniform_int(options_.max_flows - options_.min_flows + 1));
  // Start times: globally unique at ns granularity, confined to the first
  // half of the horizon so short flows usually finish inside it.
  std::set<std::int64_t> starts;
  for (std::uint32_t i = 0; i < n_flows; ++i) {
    FlowSpec f;
    f.src = static_cast<net::HostId>(rng_.uniform_int(sc.total_hosts()));
    do {
      f.dst = static_cast<net::HostId>(rng_.uniform_int(sc.total_hosts()));
    } while (f.dst == f.src);
    f.bytes = kMss * (1 + rng_.uniform_int(options_.max_flow_mss));
    do {
      f.start_ns = static_cast<std::int64_t>(
          rng_.uniform_int(static_cast<std::uint64_t>(sc.duration_ns / 2)));
    } while (!starts.insert(f.start_ns).second);
    f.flow_id = i + 1;
    sc.flows.push_back(f);
  }
  sc.validate();
  return sc;
}

Scenario ScenarioFuzzer::shrink(
    const Scenario& failing,
    const std::function<bool(const Scenario&)>& still_fails) const {
  Scenario sc = failing;
  int evals = 0;

  // Accepts `cand` as the new baseline when it is valid and still fails.
  auto accept = [&](const Scenario& cand) {
    if (evals >= kMaxShrinkEvals) return false;
    if (!is_valid(cand)) return false;
    ++evals;
    if (!still_fails(cand)) return false;
    sc = cand;
    return true;
  };

  bool progress = true;
  while (progress && evals < kMaxShrinkEvals) {
    progress = false;

    // 1. Drop flows, ddmin-style: large chunks first, then singles.
    for (std::size_t chunk = std::max<std::size_t>(sc.flows.size() / 2, 1);
         chunk >= 1; chunk /= 2) {
      for (std::size_t i = 0; i < sc.flows.size() && sc.flows.size() > 1;) {
        Scenario cand = sc;
        const auto first = cand.flows.begin() + static_cast<std::ptrdiff_t>(i);
        const auto last =
            cand.flows.begin() +
            static_cast<std::ptrdiff_t>(std::min(i + chunk, cand.flows.size()));
        cand.flows.erase(first, last);
        if (accept(cand)) {
          progress = true;  // keep i: the next chunk slid into place
        } else {
          i += chunk;
        }
      }
      if (chunk == 1) break;
    }

    // 2. Halve flow sizes (floor one MSS).
    for (std::size_t i = 0; i < sc.flows.size(); ++i) {
      if (sc.flows[i].bytes <= kMss) continue;
      Scenario cand = sc;
      cand.flows[i].bytes = std::max(kMss, cand.flows[i].bytes / 2);
      if (accept(cand)) progress = true;
    }

    // 3. Shave topology. Host ids are ToR-major, so dropping the last ToR
    // (or a host slot) only invalidates flows whose endpoints fall off the
    // end — validate() rejects those candidates and accept() skips them.
    while (sc.spines > 1) {
      Scenario cand = sc;
      --cand.spines;
      if (!accept(cand)) break;
      progress = true;
    }
    while (sc.tors > 2) {
      Scenario cand = sc;
      --cand.tors;
      if (!accept(cand)) break;
      progress = true;
    }

    // 4. Halve the horizon while every flow still starts inside it.
    while (true) {
      Scenario cand = sc;
      cand.duration_ns /= 2;
      if (cand.duration_ns < 100'000 || !accept(cand)) break;
      progress = true;
    }
  }
  return sc;
}

Scenario random_hybrid_scenario(std::uint64_t scenario_seed) {
  sim::Rng rng{scenario_seed * 2 + 1};
  Scenario sc;
  Scenario::Approximation& a = sc.approx.emplace();
  sc.seed = scenario_seed + 11;
  sc.clusters = 3 + static_cast<std::uint32_t>(rng.uniform_int(2));
  sc.cores = 2;
  a.model_seed = rng.uniform_int(1'000) + 1;
  // Mostly gentle drop baselines (sampled rates ~5-20%); one scenario in
  // four sits near the threshold so p > 0.5 drops fire deterministically
  // in the cross-engine comparison too.
  a.drop_bias = rng.uniform_int(4) == 0 ? 0.2 : -3.0 + rng.uniform() * 1.5;
  a.latency_mean_us = 5.0 + rng.uniform() * 5.0;
  a.latency_std = 0.2 + rng.uniform() * 0.3;
  a.min_latency_us = 4.0 + rng.uniform() * 2.0;
  a.max_port_backlog_us = 20.0 + rng.uniform() * 20.0;
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

Scenario random_granularity_scenario(std::uint64_t scenario_seed) {
  sim::Rng rng{scenario_seed * 2 + 1};
  Scenario sc;
  Scenario::Approximation& a = sc.approx.emplace();
  sc.seed = scenario_seed + 17;
  sc.clusters = 3 + static_cast<std::uint32_t>(rng.uniform_int(2));
  sc.cores = 2;
  a.model_seed = rng.uniform_int(1'000) + 1;
  a.drop_bias = -3.0 + rng.uniform() * 1.0;
  a.latency_mean_us = 5.0 + rng.uniform() * 3.0;
  a.latency_std = 0.2 + rng.uniform() * 0.2;
  a.min_latency_us = 4.0 + rng.uniform() * 2.0;
  a.max_port_backlog_us = 25.0 + rng.uniform() * 15.0;

  a.adaptive_tiers = true;
  a.min_dwell_windows = 2 + static_cast<std::uint32_t>(rng.uniform_int(2));
  // Classification thresholds sized to this corpus: the aggregate
  // boundary capacity of a cluster here is ~100 Gbps while a handful of
  // ramping TCP flows offer a few hundred Mbps per 100 us window, so the
  // FidelityConfig defaults (2% / 50%) would classify everything as
  // quiescent forever. A fast EWMA makes the silence demote and the
  // burst promote within a few windows.
  a.quiescent_util = 1e-4;
  a.congested_util = 1.5e-3 + rng.uniform() * 1.5e-3;
  a.congested_drop_rate = 0.5;  // classification is utilization-driven
  a.classify_ewma_alpha = 0.6;
  sc.duration_ns =
      4'000'000 + static_cast<std::int64_t>(rng.uniform_int(1'000'000));

  // Quiescent-heavy shape: sparse early cross-cluster flows, a long
  // silence (the demotion trigger), one incast burst into an
  // approximated cluster (the promotion trigger), then a quiet tail.
  const std::uint32_t hosts = sc.total_hosts();
  const std::uint32_t hosts_per_cluster = sc.tors * sc.hosts_per_tor;
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

}  // namespace esim::check
