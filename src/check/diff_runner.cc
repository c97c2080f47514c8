#include "check/diff_runner.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "core/network.h"
#include "sim/parallel.h"

namespace esim::check {
namespace {

/// Bisection stops when the window is this tight.
constexpr std::int64_t kBisectResolutionNs = 1000;
/// Record-capture cap during localization reruns.
constexpr std::size_t kMaxCapture = 1 << 20;

/// The sink an adaptive run attaches when the caller brought none:
/// congestion tracking only (no shadow sampling, no JSONL) with the
/// scenario's classification thresholds.
telemetry::FidelityConfig tracking_config(const Scenario::Approximation& a) {
  telemetry::FidelityConfig fcfg;
  fcfg.enabled = true;
  fcfg.sample_period = 0;  // keep congestion tracking, skip shadow cost
  fcfg.quiescent_util = a.quiescent_util;
  fcfg.congested_util = a.congested_util;
  fcfg.congested_drop_rate = a.congested_drop_rate;
  fcfg.ewma_alpha = a.classify_ewma_alpha;
  return fcfg;
}

bool holds(Relation relation, const RunOutcome& a, const RunOutcome& b) {
  if (a.flows_completed != b.flows_completed) return false;
  switch (relation) {
    case Relation::FullDigest: return a.digest == b.digest;
    case Relation::EngineInvariant:
      return a.digest.engine_invariant_equal(b.digest);
    case Relation::FinalState: return a.final_state_fp == b.final_state_fp;
  }
  return false;
}

const char* relation_name(Relation relation) {
  switch (relation) {
    case Relation::FullDigest: return "full digest incl. pop order";
    case Relation::EngineInvariant: return "engine-invariant lanes";
    case Relation::FinalState: return "final-state fingerprint";
  }
  return "?";
}

/// Runs `r` to `end`, attaching a fresh observatory sink when enabled.
RunOutcome execute(const RunSpec& r, sim::SimTime end, bool capture) {
  if (r.exec) return r.exec();
  std::optional<telemetry::FidelitySink> sink;
  RunHooks hooks;
  hooks.capture = capture;
  if (r.fidelity.enabled) hooks.fidelity = &sink.emplace(r.fidelity);
  RunOutcome out = run_scenario(r.scenario, r.engine, end, hooks);
  if (sink) {
    out.fidelity_rows = sink->rows_appended();
    for (const auto& s : sink->summaries()) {
      out.shadow_samples += s.shadow_samples;
    }
  }
  return out;
}

/// Bisects the horizon to the earliest end time (to within
/// kBisectResolutionNs) at which the relation already fails — digests at
/// a shorter horizon cover a prefix of the run, so divergence is monotone
/// in the horizon — then reruns both sides there with capture and names
/// the earliest differing per-link record.
void localize(DiffReport& report) {
  const auto equal_at = [&report](std::int64_t t_ns) {
    const auto end = sim::SimTime::from_ns(t_ns);
    return holds(report.relation, execute(report.base, end, false),
                 execute(report.other, end, false));
  };
  std::int64_t lo = 0;  // digests match when nothing has run
  std::int64_t hi = report.base.scenario.duration_ns;
  while (hi - lo > kBisectResolutionNs) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (equal_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  report.divergence_window_ns = hi;

  const auto end = sim::SimTime::from_ns(hi);
  const RunOutcome base_run = execute(report.base, end, /*capture=*/true);
  const RunOutcome other_run = execute(report.other, end, /*capture=*/true);

  std::vector<std::string> links;
  for (const auto& [name, _] : base_run.records) links.push_back(name);
  for (const auto& [name, _] : other_run.records) {
    if (!base_run.records.count(name)) links.push_back(name);
  }

  FirstDivergence& first = report.first;
  for (const std::string& name : links) {
    static const std::vector<PacketRecord> kEmpty;
    const auto& a =
        base_run.records.count(name) ? base_run.records.at(name) : kEmpty;
    const auto& b =
        other_run.records.count(name) ? other_run.records.at(name) : kEmpty;
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t i = 0;
    while (i < n && a[i] == b[i]) ++i;
    if (i == a.size() && i == b.size()) continue;  // streams identical
    std::int64_t t = std::numeric_limits<std::int64_t>::max();
    if (i < a.size()) t = std::min(t, a[i].time_ns);
    if (i < b.size()) t = std::min(t, b[i].time_ns);
    if (first.found && t >= first.time_ns) continue;
    first.found = true;
    first.link = name;
    first.index = i;
    first.time_ns = t;
    first.base_record = i < a.size() ? a[i].to_string() : "<end of stream>";
    first.other_record = i < b.size() ? b[i].to_string() : "<end of stream>";
    first.context.clear();
    for (std::size_t k = i >= 3 ? i - 3 : 0; k < i; ++k) {
      first.context.push_back(a[k].to_string());
    }
  }
}

std::string describe_traces(const TierTraces& traces) {
  std::ostringstream os;
  for (const auto& [cluster, trace] : traces) {
    os << " c" << cluster << "=[";
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i > 0) os << " ";
      os << trace[i].t_ns << "ns:" << core::to_string(trace[i].from) << ">"
         << core::to_string(trace[i].to);
    }
    os << "]";
  }
  return os.str();
}

/// One group comparing `other` against `base` on the same scenario.
Group engine_pair(const Scenario& sc, const EngineSpec& base,
                  const EngineSpec& other) {
  return {RunSpec{sc, base},
          {{RunSpec{sc, other}, base == other ? Relation::FullDigest
                                              : Relation::EngineInvariant}}};
}

/// check_hybrid's and check_granularity's group: the sequential baseline
/// against every partition count, threshold drops.
Group engine_group(const Scenario& sc,
                   const std::vector<std::uint32_t>& partitions) {
  Scenario threshold = sc;
  threshold.approx.value().sample_drops = false;
  Group g{RunSpec{threshold, {}}, {}};
  for (const std::uint32_t p : partitions) {
    g.members.push_back({RunSpec{threshold, {p}}});
  }
  return g;
}

/// Schedules on `sim` every flow whose source host lives on partition `p`
/// (per `partition_of_host`), with its completion wired into `digest`.
void inject_flows(sim::Simulator& sim, const std::vector<FlowSpec>& flows,
                  const std::vector<tcp::Host*>& hosts,
                  const std::vector<std::uint32_t>& partition_of_host,
                  std::uint32_t p, StateDigest& digest) {
  for (const FlowSpec& f : flows) {
    if (partition_of_host[f.src] != p) continue;
    tcp::Host* host = hosts[f.src];
    sim.schedule_at(sim::SimTime::from_ns(f.start_ns), [host, f, &digest] {
      auto* conn = host->open_flow(f.dst, f.bytes, f.flow_id);
      const sim::SimTime start = host->sim().now();
      conn->on_complete = [host, f, start, &digest] {
        digest.on_flow_complete(f.flow_id, f.src, f.dst, f.bytes, start,
                                host->sim().now());
      };
    });
  }
}

}  // namespace

RunOutcome run_scenario(const Scenario& sc, const EngineSpec& engine,
                        sim::SimTime end, const RunHooks& hooks) {
  sc.validate();
  std::optional<approx::MicroModel> ingress;
  std::optional<approx::MicroModel> egress;
  std::unique_ptr<telemetry::FidelitySink> tracking;
  core::HybridConfig hybrid;
  if (sc.approx) {
    ingress.emplace(sc.approx->make_model(0));
    egress.emplace(sc.approx->make_model(7));
    hybrid = sc.hybrid_config();
    hybrid.approx.fidelity = hooks.fidelity;
    // The adaptive controller needs its congestion signal.
    if (sc.approx->adaptive_tiers && hooks.fidelity == nullptr) {
      tracking = std::make_unique<telemetry::FidelitySink>(
          tracking_config(*sc.approx));
      hybrid.approx.fidelity = tracking.get();
    }
  }
  StateDigest digest;
  if (hooks.capture) digest.enable_capture(kMaxCapture);
  RunOutcome out;
  out.digest_attached = hooks.digest;

  const auto execute_rig = [&](Rig& rig) {
    if (hooks.drive) {
      hooks.drive(rig);
    } else {
      for (std::uint32_t p = 0; p < rig.parts.size(); ++p) {
        inject_flows(*rig.parts[p], sc.flows, rig.net->hosts,
                     *rig.partition_of_host, p, digest);
      }
      rig.run_until(end);
    }
    for (core::ApproxCluster* c : rig.net->clusters) {
      if (c == nullptr) continue;
      c->finalize_fidelity();
      // Fold the transition trace into the engine-invariant tier lane.
      for (const core::TierTransition& t : c->tier_trace()) {
        digest.on_tier_transition(c->cluster_id(), t.t_ns,
                                  static_cast<std::uint8_t>(t.from),
                                  static_cast<std::uint8_t>(t.to));
      }
      out.traces[c->cluster_id()] = c->tier_trace();
    }
    if (hooks.digest) out.digest = digest.finalize();
    // Records reference link names owned by the engine; copy them out
    // before it (and its components) goes out of scope.
    if (hooks.capture) out.records = digest.captured();
    out.flows_completed = out.digest.flows;
    out.final_state_fp = final_state_fingerprint(
        std::vector<const sim::Simulator*>(rig.parts.begin(),
                                           rig.parts.end()));
  };

  if (engine.partitions == 0) {
    sim::Simulator sim{sc.seed};
    if (engine.invert_tiebreak) sim.debug_invert_fes_tiebreak(true);
    const core::BuiltNetwork net =
        sc.approx ? core::build_hybrid_network(sim, hybrid, *ingress, *egress)
                  : core::build_full_network(sim, sc.network_config());
    if (hooks.digest) digest.attach(sim);
    const std::vector<std::uint32_t> owner(sc.total_hosts(), 0);
    Rig rig{{&sim}, &net, &owner, hooks.digest ? &digest : nullptr,
            [&sim](sim::SimTime t) { sim.run_until(t); }};
    execute_rig(rig);
    return out;
  }

  sim::ParallelEngine::Config cfg;
  cfg.num_partitions = engine.partitions;
  cfg.lookahead = sim::SimTime::from_ns(kLookaheadNs);
  if (!sc.approx) cfg.window_mode = sim::ParallelEngine::WindowMode::per_pair;
  cfg.seed = sc.seed;
  sim::ParallelEngine eng{cfg};
  if (engine.invert_tiebreak) {
    for (std::uint32_t p = 0; p < eng.num_partitions(); ++p) {
      eng.partition(p).sim().debug_invert_fes_tiebreak(true);
    }
  }
  const core::PartitionedNetwork built =
      sc.approx
          ? core::build_hybrid_network_partitioned(eng, hybrid, *ingress,
                                                   *egress)
          : core::build_clos_partitioned(eng, sc.network_config(),
                                         core::PlacementPolicy::graph_cut);
  if (hooks.digest) digest.attach(eng);
  Rig rig{{}, &built.net, &built.partition_of_host,
          hooks.digest ? &digest : nullptr,
          [&eng](sim::SimTime t) { eng.run_until(t); }};
  for (std::uint32_t p = 0; p < eng.num_partitions(); ++p) {
    rig.parts.push_back(&eng.partition(p).sim());
  }
  execute_rig(rig);
  return out;
}

std::string EngineSpec::label() const {
  std::string s = partitions == 0
                      ? "sequential"
                      : "pdes(" + std::to_string(partitions) + ")";
  if (invert_tiebreak) s += "+inverted-tiebreak";
  return s;
}

std::string RunSpec::label() const {
  std::string s = engine.label();
  if (scenario.approx) {
    s += scenario.approx->sample_drops ? ", sampled drops"
                                       : ", threshold drops";
    if (scenario.approx->adaptive_tiers) s += ", adaptive tiers";
  }
  if (fidelity.enabled) s += ", fidelity on";
  if (!note.empty()) s += ", " + note;
  return s;
}

std::string FirstDivergence::to_string() const {
  if (!found) return "(no packet-level divergence localized)";
  std::ostringstream os;
  os << "first divergence on link '" << link << "' at record #" << index
     << " (t=" << time_ns << "ns):\n";
  for (const auto& c : context) os << "    ... " << c << "\n";
  os << "    base:  " << base_record << "\n";
  os << "    other: " << other_record;
  return os.str();
}

std::string DiffReport::to_string() const {
  std::ostringstream os;
  os << base.label() << " vs " << other.label() << ": "
     << (equivalent ? "EQUIVALENT" : "DIVERGED") << " ("
     << relation_name(relation) << ")\n";
  if (relation == Relation::FinalState) {
    os << "  base:  final state " << fingerprint_hex(base_run.final_state_fp)
       << ", " << base_run.flows_completed << " flows\n";
    os << "  other: final state " << fingerprint_hex(other_run.final_state_fp)
       << ", " << other_run.flows_completed << " flows";
  } else {
    os << "  base:  " << base_run.digest.to_string() << "\n";
    os << "  other: " << other_run.digest.to_string();
  }
  if (base_run.traces != other_run.traces) {
    os << "\n  base tier transitions: " << describe_traces(base_run.traces)
       << "\n  other tier transitions:" << describe_traces(other_run.traces);
  }
  if (divergence_window_ns > 0) {
    os << "\n  earliest diverged horizon: " << divergence_window_ns << "ns\n";
    os << "  " << first.to_string();
  }
  return os.str();
}

std::vector<DiffReport> run_groups(const std::vector<Group>& groups,
                                   std::vector<Digest>* log) {
  const auto run = [log](const RunSpec& r) {
    RunOutcome out =
        execute(r, sim::SimTime::from_ns(r.scenario.duration_ns), false);
    if (log != nullptr && out.digest_attached) log->push_back(out.digest);
    return out;
  };
  std::vector<DiffReport> reports;
  for (const Group& g : groups) {
    const RunOutcome base = run(g.baseline);
    for (const Member& m : g.members) {
      DiffReport& r = reports.emplace_back();
      r.relation = m.relation;
      r.base = g.baseline;
      r.other = m.run;
      r.base_run = base;
      r.other_run = run(m.run);
      r.equivalent = holds(m.relation, r.base_run, r.other_run);
      if (r.equivalent) continue;
      if (!r.base.exec && !r.other.exec &&
          r.relation != Relation::FinalState) {
        localize(r);
      }
      break;
    }
  }
  return reports;
}

std::string describe_failures(const std::vector<DiffReport>& reports) {
  std::string out;
  for (const DiffReport& r : reports) {
    if (r.equivalent) continue;
    if (!out.empty()) out += "\n";
    out += r.to_string();
  }
  return out;
}

RunOutcome DiffRunner::run(const Scenario& scenario, const EngineSpec& engine,
                           sim::SimTime end, bool capture) const {
  RunHooks hooks;
  hooks.capture = capture;
  return run_scenario(scenario, engine, end, hooks);
}

DiffReport DiffRunner::diff(const Scenario& scenario, const EngineSpec& base,
                            const EngineSpec& other) const {
  return run_groups({engine_pair(scenario, base, other)}).front();
}

std::vector<DiffReport> DiffRunner::check_all(
    const Scenario& scenario, const std::vector<std::uint32_t>& partition_counts,
    bool inject_tiebreak_bug, std::vector<Digest>* log) const {
  std::vector<Group> groups;
  for (const std::uint32_t p : partition_counts) {
    groups.push_back(engine_pair(scenario, {}, {p, inject_tiebreak_bug}));
  }
  if (!partition_counts.empty()) {
    // Rerun determinism: the widest PDES config against itself must match
    // on the FULL digest, pop order included.
    const EngineSpec widest{
        *std::max_element(partition_counts.begin(), partition_counts.end())};
    groups.push_back(engine_pair(scenario, widest, widest));
  }
  return run_groups(groups, log);
}

std::string check_hybrid(const Scenario& sc,
                         const std::vector<std::uint32_t>& partitions,
                         std::vector<Digest>* digests_out) {
  return describe_failures(
      run_groups({engine_group(sc, partitions)}, digests_out));
}

std::string check_fidelity(const Scenario& sc,
                           const std::vector<std::uint32_t>& partitions,
                           std::uint64_t* rows_out, std::uint64_t* shadow_out,
                           std::vector<Digest>* digests_out) {
  // Sampled drops everywhere: each group pairs two runs of ONE engine
  // config, so the RNG forks coincide and a divergence can only come from
  // the observatory touching simulation state.
  Scenario sampled = sc;
  sampled.approx.value().sample_drops = true;
  telemetry::FidelityConfig on;
  on.enabled = true;
  on.sample_period = 16;  // dense enough that small scenarios shadow

  std::vector<Group> groups;
  const auto off_on = [&](std::uint32_t p) {
    RunSpec with = RunSpec{sampled, {p}};
    with.fidelity = on;
    groups.push_back({RunSpec{sampled, {p}}, {{with, Relation::FullDigest}}});
  };
  off_on(0);
  for (const std::uint32_t p : partitions) off_on(p);

  const std::vector<DiffReport> reports = run_groups(groups, digests_out);
  for (const DiffReport& r : reports) {
    if (rows_out != nullptr) *rows_out += r.other_run.fidelity_rows;
    if (shadow_out != nullptr) *shadow_out += r.other_run.shadow_samples;
  }
  return describe_failures(reports);
}

std::string check_granularity(const Scenario& sc,
                              const std::vector<std::uint32_t>& partitions,
                              std::uint64_t* transitions_out,
                              std::vector<Digest>* digests_out) {
  Scenario adaptive = sc;
  adaptive.approx.value().adaptive_tiers = true;
  const std::vector<DiffReport> reports =
      run_groups({engine_group(adaptive, partitions)}, digests_out);
  if (transitions_out != nullptr && !reports.empty()) {
    *transitions_out += reports.front().base_run.digest.transitions;
  }
  return describe_failures(reports);
}

}  // namespace esim::check
