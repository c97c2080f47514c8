// Differential execution: one run path, one group runner, and
// first-divergence localization.
//
// run_scenario is the harness's only engine build: it runs a Scenario —
// all-packet or hybrid — under any EngineSpec (sequential Simulator, or
// PDES with N partitions), wiring a StateDigest into the engine,
// injecting the flow list, and reducing the run to a Digest. Memo runs
// reuse it through a hook that replaces "inject, run to the horizon".
//
// Every check is a list of groups. A group is a baseline run plus member
// runs, each member carrying the relation it must hold to the baseline.
// run_groups executes the groups in order, logs every digest-attached run
// (the corpus fingerprint), and stops a group at its first failing
// member. When both sides are plain runs it bisects over the virtual-time
// horizon to the earliest end time at which the relation already fails,
// then reruns both sides with record capture to name the first divergent
// per-link packet event with context — for hybrid runs too.
//
// Engine configuration is fixed per scenario kind, and the digest's order
// lane depends on it: the seed comes from the scenario and the PDES
// lookahead is kLookaheadNs. All-packet scenarios use graph-cut placement
// and per-pair windows, so the gate exercises the scale-out path
// (per-pair lookahead + mailbox drains); approximated scenarios use the
// hybrid builder's placement and ParallelEngine's default global windows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "check/digest.h"
#include "check/scenario.h"
#include "core/granularity.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "telemetry/fidelity.h"

namespace esim::check {

/// Which engine to run a scenario under.
struct EngineSpec {
  /// 0 = sequential Simulator; >= 1 = ParallelEngine with this many
  /// partitions.
  std::uint32_t partitions = 0;
  /// Injected ordering bug: invert the FES same-time tie-break in every
  /// engine/partition of this run (see EventQueue::debug_set_invert_
  /// tiebreak). Used to prove the harness catches ordering regressions.
  bool invert_tiebreak = false;

  bool operator==(const EngineSpec&) const = default;

  std::string label() const;
};

/// Executed tier transitions per cluster index, in virtual-time order.
using TierTraces = std::map<std::uint32_t, std::vector<core::TierTransition>>;

/// Everything one run produced.
struct RunOutcome {
  Digest digest;
  /// False for runs that attached no digest (memo's aggregate mode):
  /// `digest` is then zero and the run is not logged.
  bool digest_attached = true;
  std::uint64_t flows_completed = 0;
  /// End-of-run network state (check::final_state_fingerprint).
  std::uint64_t final_state_fp = 0;
  /// Captured per-link packet logs (only when the run asked for them).
  std::map<std::string, std::vector<PacketRecord>> records;
  /// Every approximated cluster's executed tier transitions (empty unless
  /// adaptive), as folded into the tier lane.
  TierTraces traces;
  /// Fidelity rows and shadow samples, when an observatory was attached.
  std::uint64_t fidelity_rows = 0;
  std::uint64_t shadow_samples = 0;
};

/// What run_scenario hands RunHooks::drive once the engine and network
/// exist.
struct Rig {
  std::vector<sim::Simulator*> parts;  ///< one per partition
  const core::BuiltNetwork* net = nullptr;
  const std::vector<std::uint32_t>* partition_of_host = nullptr;
  StateDigest* digest = nullptr;  ///< null when no digest is attached
  std::function<void(sim::SimTime)> run_until;
};

/// Per-run attachments of run_scenario.
struct RunHooks {
  /// Keep per-link packet records (divergence localization).
  bool capture = false;
  /// Observatory sink for every ApproxCluster; digest-invariant.
  telemetry::FidelitySink* fidelity = nullptr;
  /// False runs without a digest (memo's aggregate mode).
  bool digest = true;
  /// Replaces "inject the flows, run to the horizon": set by memo runs,
  /// which inject and advance phase by phase. The hook validates what it
  /// injects: run_scenario then checks only the scenario's shape, not its
  /// flow list.
  std::function<void(Rig&)> drive;
};

/// The harness's one run path: validates the scenario (its flow list
/// only when it injects it), builds the engine for `engine` and the
/// network for `scenario` (all-packet, or hybrid when it has an
/// approximation block), attaches the digest, the fidelity sink and record
/// capture per `hooks`, injects the flows and runs until `end` (or hands
/// the rig to hooks.drive), then finalizes every ApproxCluster's fidelity
/// window and folds its tier trace into the digest.
RunOutcome run_scenario(const Scenario& scenario, const EngineSpec& engine,
                        sim::SimTime end, const RunHooks& hooks = {});

/// How a member run must relate to its group's baseline. Every relation
/// also requires equal completion counts.
enum class Relation : std::uint8_t {
  FullDigest,       ///< every lane and count, pop order included
  EngineInvariant,  ///< Digest::engine_invariant_equal
  FinalState,       ///< final-state fingerprint (runs without a digest)
};

/// One run of a group.
struct RunSpec {
  Scenario scenario;
  EngineSpec engine;
  /// The fidelity observatory, attached when enabled.
  telemetry::FidelityConfig fidelity{};
  /// Runs the plain path cannot express (memo's chunked runs) execute
  /// here instead; they are not bisected or localized.
  std::function<RunOutcome()> exec{};
  /// Describes an exec run in reports.
  std::string note{};

  std::string label() const;
};

struct Member {
  RunSpec run;
  Relation relation = Relation::EngineInvariant;
};

/// A baseline run plus the member runs compared against it.
struct Group {
  RunSpec baseline;
  std::vector<Member> members;
};

/// The first observable difference between two runs, localized to one
/// link's packet stream.
struct FirstDivergence {
  bool found = false;
  std::string link;        ///< link whose streams diverge earliest
  std::size_t index = 0;   ///< record index within that link's stream
  std::int64_t time_ns = 0;
  std::string base_record;   ///< "<end of stream>" when one side is short
  std::string other_record;
  std::vector<std::string> context;  ///< records preceding the divergence

  std::string to_string() const;
};

/// One member compared against its baseline.
struct DiffReport {
  bool equivalent = false;
  Relation relation = Relation::EngineInvariant;
  RunSpec base;
  RunSpec other;
  RunOutcome base_run;
  RunOutcome other_run;
  /// Bisected earliest horizon (ns) at which the relation already fails;
  /// 0 when equivalent or not localized.
  std::int64_t divergence_window_ns = 0;
  FirstDivergence first;

  std::string to_string() const;
};

/// Runs `groups` in order: each baseline, then its members, comparing
/// every member to the baseline under its relation. A group stops at its
/// first failing member, which is localized when both runs are plain.
/// Every digest-attached run's digest is appended, in run order, to `log`
/// when non-null. Returns one report per member run.
std::vector<DiffReport> run_groups(const std::vector<Group>& groups,
                                   std::vector<Digest>* log = nullptr);

/// "" when every report is equivalent, else the failing reports.
std::string describe_failures(const std::vector<DiffReport>& reports);

/// Plain-run entry points over run_scenario and run_groups.
class DiffRunner {
 public:
  /// Runs `scenario` under `engine` until `end` (<= scenario duration),
  /// returning the digest (and captured records when `capture`).
  RunOutcome run(const Scenario& scenario, const EngineSpec& engine,
                 sim::SimTime end, bool capture = false) const;

  /// Full-duration run.
  RunOutcome run(const Scenario& scenario, const EngineSpec& engine) const {
    return run(scenario, engine, sim::SimTime::from_ns(scenario.duration_ns));
  }

  /// Compares `base` and `other` on `scenario`: full digest when the
  /// engine configs are identical (rerun determinism), engine-invariant
  /// lanes otherwise; localizes on mismatch.
  DiffReport diff(const Scenario& scenario, const EngineSpec& base,
                  const EngineSpec& other) const;

  /// The standing gate: one group per partition count (sequential, then
  /// PDES), plus a rerun-determinism group of the widest PDES config
  /// against itself. Returns one report per comparison; logs every digest
  /// to `log` when non-null.
  std::vector<DiffReport> check_all(
      const Scenario& scenario,
      const std::vector<std::uint32_t>& partition_counts,
      bool inject_tiebreak_bug = false,
      std::vector<Digest>* log = nullptr) const;
};

/// Hybrid engine equivalence (DESIGN.md §9), one group: the sequential
/// run against PDES at every partition count, on the engine-invariant
/// lanes, in the scenario's own drop mode. The group proves the cluster
/// -> core deliveries respect the lookahead. Returns "" when all agree.
std::string check_hybrid(const Scenario& sc,
                         const std::vector<std::uint32_t>& partitions,
                         std::vector<Digest>* digests_out = nullptr);

/// Fidelity digest-invariance (DESIGN.md §11): one (off, on) group per
/// engine config — sequential, then each PDES count — with the
/// observatory shadowing 1 in 16 packets, sampled drops throughout,
/// compared on the FULL digest. Accumulates the instrumented runs' rows
/// and shadow samples into the out-params.
std::string check_fidelity(const Scenario& sc,
                           const std::vector<std::uint32_t>& partitions,
                           std::uint64_t* rows_out = nullptr,
                           std::uint64_t* shadow_out = nullptr,
                           std::vector<Digest>* digests_out = nullptr);

/// Adaptive-granularity equivalence (DESIGN.md §12): check_hybrid's
/// group with adaptive_tiers forced on, so transitions must fire at
/// identical virtual times across engines (the tier lane). Accumulates
/// the sequential run's executed transitions into `transitions_out`.
std::string check_granularity(const Scenario& sc,
                              const std::vector<std::uint32_t>& partitions,
                              std::uint64_t* transitions_out = nullptr,
                              std::vector<Digest>* digests_out = nullptr);

}  // namespace esim::check
