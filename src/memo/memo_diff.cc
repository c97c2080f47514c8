#include "memo/memo_diff.h"

#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/diff_runner.h"

namespace esim::memo {

PeriodicScenario make_periodic(const check::Scenario& base,
                               std::uint32_t phases, std::int64_t period_ns,
                               bool host_pair_ecmp) {
  // The offset bump below divides by the period.
  if (period_ns <= 0) {
    throw std::invalid_argument("PhasePattern: period must be positive");
  }
  PeriodicScenario out;
  out.pattern.period_ns = period_ns;
  out.pattern.phases = phases;

  // Fold each base flow's start into the first half of the period (so
  // phases get slack to drain) and keep per-source offsets unique, the
  // same ambiguity rule Scenario::validate enforces on start times. A
  // source has period_ns offsets to give, so the bump walks at most that
  // many.
  const std::int64_t fold = period_ns / 2 > 0 ? period_ns / 2 : 1;
  std::set<std::pair<std::uint32_t, std::int64_t>> used;
  for (const check::FlowSpec& f : base.flows) {
    std::int64_t offset = f.start_ns % fold;
    for (std::int64_t tried = 1; used.count({f.src, offset}) != 0; ++tried) {
      if (tried >= period_ns) {
        throw std::invalid_argument(
            "make_periodic: source " + std::to_string(f.src) +
            " has more flows than the period has nanoseconds");
      }
      offset = (offset + 1) % period_ns;
    }
    used.insert({f.src, offset});
    out.pattern.pattern.push_back({f.src, f.dst, f.bytes, offset});
  }

  out.scenario = base;
  out.scenario.ecmp_port_sensitive = !host_pair_ecmp;
  out.scenario.duration_ns = out.pattern.total_duration_ns();
  validate_periodic(out.scenario, out.pattern);
  // The flows are pattern.expand(1), written in place.
  const std::vector<workload::PhaseFlow>& pattern = out.pattern.pattern;
  out.scenario.flows.clear();
  out.scenario.flows.reserve(pattern.size() * phases);
  std::uint64_t flow_id = 1;
  for (std::uint32_t k = 0; k < phases; ++k) {
    const std::int64_t boundary = out.pattern.boundary_ns(k);
    for (const workload::PhaseFlow& f : pattern) {
      out.scenario.flows.push_back(
          {f.src, f.dst, f.bytes, boundary + f.offset_ns, flow_id++});
    }
  }
  return out;
}

std::string check_memo(const PeriodicScenario& ps,
                       const std::vector<std::uint32_t>& partition_counts,
                       const MemoConfig& memo, MemoStats* accumulate,
                       std::vector<check::Digest>* digests_out) {
  MemoConfig off = memo;
  off.enabled = false;
  // Each memo run gets a fresh runner, so its cache starts cold.
  const auto memo_run = [&ps, accumulate](const MemoConfig& cfg,
                                          const check::EngineSpec& spec,
                                          bool with_digest, const char* note) {
    check::RunSpec r{ps.scenario, spec};
    r.note = note;
    r.exec = [&ps, cfg, spec, with_digest, accumulate] {
      MemoRunner runner{cfg};
      const MemoRunOutcome m =
          runner.run(ps.scenario, ps.pattern, spec, with_digest);
      if (accumulate != nullptr && cfg.enabled) *accumulate += m.stats;
      check::RunOutcome out;
      out.digest = m.digest;
      out.digest_attached = m.digest_attached;
      out.flows_completed = m.flows_completed;
      out.final_state_fp = m.final_state_fp;
      return out;
    };
    return r;
  };

  std::vector<check::EngineSpec> specs{{}};  // sequential
  for (std::uint32_t p : partition_counts) specs.push_back({p});
  std::vector<check::Group> groups;
  for (const check::EngineSpec& spec : specs) {
    // Chunking only perturbs drain-round seq assignment under PDES, so
    // the unchunked reference anchors the baseline on the full digest
    // sequentially and on the engine-invariant lanes otherwise.
    groups.push_back(
        {memo_run(off, spec, true, "memo off, chunked"),
         {{memo_run(memo, spec, true, "memo on, chunked"),
           check::Relation::FullDigest},
          {check::RunSpec{ps.scenario, spec, {}, {}, "unchunked"},
           spec.partitions == 0 ? check::Relation::FullDigest
                                : check::Relation::EngineInvariant},
          {memo_run(memo, spec, false, "memo on, aggregate"),
           check::Relation::FinalState}}});
  }
  return check::describe_failures(check::run_groups(groups, digests_out));
}

}  // namespace esim::memo
