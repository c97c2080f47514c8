#include "memo/memo_diff.h"

#include <set>
#include <sstream>
#include <utility>

#include "check/diff_runner.h"

namespace esim::memo {

PeriodicScenario make_periodic(const check::Scenario& base,
                               std::uint32_t phases, std::int64_t period_ns,
                               bool host_pair_ecmp) {
  PeriodicScenario out;
  out.pattern.period_ns = period_ns;
  out.pattern.phases = phases;

  // Fold each base flow's start into the first half of the period (so
  // phases get slack to drain) and keep per-source offsets unique, the
  // same ambiguity rule Scenario::validate enforces on start times.
  const std::int64_t fold = period_ns / 2 > 0 ? period_ns / 2 : 1;
  std::set<std::pair<std::uint32_t, std::int64_t>> used;
  for (const check::FlowSpec& f : base.flows) {
    std::int64_t offset = f.start_ns % fold;
    while (used.count({f.src, offset}) != 0) {
      offset = (offset + 1) % period_ns;
    }
    used.insert({f.src, offset});
    out.pattern.pattern.push_back({f.src, f.dst, f.bytes, offset});
  }
  out.pattern.validate();

  out.scenario = base;
  out.scenario.ecmp_port_sensitive = !host_pair_ecmp;
  out.scenario.duration_ns = out.pattern.total_duration_ns();
  out.scenario.flows.clear();
  for (const auto& inj : out.pattern.expand(1)) {
    out.scenario.flows.push_back(
        {inj.src, inj.dst, inj.bytes, inj.start_ns, inj.flow_id});
  }
  out.scenario.validate();
  return out;
}

std::string check_memo(const PeriodicScenario& ps,
                       const std::vector<std::uint32_t>& partition_counts,
                       const MemoConfig& memo, MemoStats* accumulate,
                       std::vector<check::Digest>* digests_out) {
  std::vector<check::EngineSpec> specs;
  specs.push_back({});  // sequential
  for (std::uint32_t p : partition_counts) specs.push_back({p});

  const check::DiffRunner::Options options{};
  MemoConfig off = memo;
  off.enabled = false;

  std::ostringstream diag;
  for (const check::EngineSpec& spec : specs) {
    MemoRunner off_runner{options, off};
    const MemoRunOutcome base =
        off_runner.run(ps.scenario, ps.pattern, spec, /*with_digest=*/true);

    MemoRunner on_runner{options, memo};
    const MemoRunOutcome memoized =
        on_runner.run(ps.scenario, ps.pattern, spec, /*with_digest=*/true);

    if (!(memoized.digest == base.digest) ||
        memoized.flows_completed != base.flows_completed) {
      diag << spec.label() << ": memo-on digest diverges from memo-off\n"
           << "  off: " << base.digest.to_string() << "\n"
           << "  on:  " << memoized.digest.to_string() << " (hits "
           << memoized.stats.hits << ", near misses "
           << memoized.stats.near_misses << ", store aborts "
           << memoized.stats.store_aborts << ")\n";
    }

    // Anchor the chunked memo-off baseline to the seed harness.
    const check::DiffRunner ref_runner{options};
    const check::RunOutcome ref = ref_runner.run(ps.scenario, spec);
    const bool anchored = spec.partitions == 0
                              ? ref.digest == base.digest
                              : ref.digest.engine_invariant_equal(base.digest);
    if (!anchored || ref.flows_completed != base.flows_completed) {
      diag << spec.label()
           << ": chunked memo-off diverges from unchunked reference\n"
           << "  ref:     " << ref.digest.to_string() << "\n"
           << "  chunked: " << base.digest.to_string() << "\n";
    }

    if (digests_out != nullptr) {
      digests_out->push_back(base.digest);
      digests_out->push_back(memoized.digest);
      digests_out->push_back(ref.digest);
    }

    // Aggregate-only memoization must land on the same final state.
    MemoRunner agg_runner{options, memo};
    const MemoRunOutcome agg =
        agg_runner.run(ps.scenario, ps.pattern, spec, /*with_digest=*/false);
    if (agg.final_state_fp != base.final_state_fp ||
        agg.flows_completed != base.flows_completed) {
      diag << spec.label()
           << ": aggregate memo final state fp " << agg.final_state_fp
           << " != memo-off " << base.final_state_fp << "\n";
    }

    if (accumulate != nullptr) {
      *accumulate += memoized.stats;
      *accumulate += agg.stats;
    }
  }
  return diag.str();
}

}  // namespace esim::memo
