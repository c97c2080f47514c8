// esim_diffcheck: differential determinism checker.
//
//   esim_diffcheck fuzz [--n N] [--seed S] [--partitions 1,2,4]
//                       [--out PREFIX] [--inject-tiebreak-bug]
//     Generates N scenarios from seed S and checks each one: sequential vs
//     PDES at every partition count (engine-invariant digest lanes), plus
//     a rerun-determinism pass of the widest PDES config against itself
//     (full digest, pop order included). On divergence: prints the report
//     with the bisected first-divergence window, shrinks the scenario to a
//     minimal repro, writes it to PREFIX<k>.scenario, and exits 1.
//
//   esim_diffcheck replay FILE [--partitions 1,2,4] [--inject-tiebreak-bug]
//     Re-runs the checks on a saved (possibly shrunk) scenario file.
//
//   esim_diffcheck hybrid [--n N] [--seed S] [--partitions 2,3]
//     Generates N hybrid (approx-cluster) scenarios with cross-packet
//     batched inference active and checks each one twice: sequential
//     batching-on vs batching-off with sampled drops (the RNG draw-order
//     contract), then sequential vs PDES at every partition count with
//     N>1 coalescing on both sides (threshold drops; engine-invariant
//     digest lanes).
//
//   esim_diffcheck fidelity [--n N] [--seed S] [--partitions 2,4]
//     Generates N hybrid scenarios and checks, for each, that enabling
//     the fidelity observatory (shadow sampling at 1/16 + congestion
//     telemetry) leaves the FULL digest — event counts, pop order, every
//     lane — bit-identical to the same run with it off: sequentially
//     (batched and unbatched) and at every PDES partition count, sampled
//     drops throughout. Also requires that the instrumented runs did
//     real work (shadow samples > 0 overall), so a silently-disabled
//     probe cannot pass.
//
//   esim_diffcheck granularity [--n N] [--seed S] [--partitions 2,4]
//     Generates N quiescent-heavy adaptive-tier scenarios (DESIGN.md §12)
//     and checks each one: sequential batching on vs off with sampled
//     drops, then sequential vs PDES at every partition count with
//     threshold drops — engine-invariant digest lanes, tier lane
//     included. Also requires that the corpus executed at least one real
//     transition, so a controller that never engages cannot pass.
//
//   esim_diffcheck memo [--n N] [--seed S] [--partitions 2,4]
//     Generates N periodic (ML-training-style) scenarios and checks each
//     one's phase-memoization equivalence (src/memo): memo-on vs memo-off
//     at FULL digest identity (order lane included) sequentially and at
//     every PDES partition count, the chunked memo-off baseline against
//     the unchunked run, and the aggregate-only fast-forward mode against
//     the memo-off final-state fingerprint. Also requires the corpus
//     produced real cache hits, so memoization that never engages cannot
//     pass.
//
//   esim_diffcheck selftest
//     Proves the harness has teeth: runs a crafted tie-rich scenario with
//     the FES tie-break deliberately inverted on one side and demands the
//     divergence is caught, localized, and shrunk. Exits 0 only when the
//     injected bug is detected AND clean configurations still agree.
//
// hybrid, fidelity, granularity and memo are rows of one corpus table:
// scenario k comes from seed S + k, so a failure is reproducible from the
// printed seed alone, and a divergence between plain runs prints its
// bisected horizon and first divergent packet record.
//
// Every subcommand but selftest closes with a summary line that ends in
// `fingerprint=<16 hex>`: an order-sensitive fold of every digest the
// subcommand logged, in run order (check::corpus_fingerprint). Two builds
// that print the same fingerprint for one corpus ran it digest-
// identically, order lane included. scripts/fingerprints.sh prints the
// closing lines of the standing corpora.
//
// Exit codes: 0 = all equivalent, 1 = divergence (or selftest failure),
// 2 = usage / IO error.
#include <charconv>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/diff_runner.h"
#include "check/fuzzer.h"
#include "check/scenario.h"
#include "memo/memo_diff.h"

namespace {

using esim::check::DiffReport;
using esim::check::Digest;
using esim::check::DiffRunner;
using esim::check::EngineSpec;
using esim::check::FlowSpec;
using esim::check::Scenario;
using esim::check::ScenarioFuzzer;

constexpr const char* kUsage =
    "usage: esim_diffcheck fuzz [--n N] [--seed S] [--partitions 1,2,4] "
    "[--out PREFIX] [--inject-tiebreak-bug]\n"
    "       esim_diffcheck replay FILE [--partitions 1,2,4] "
    "[--inject-tiebreak-bug]\n"
    "       esim_diffcheck hybrid [--n N] [--seed S] [--partitions 2,3]\n"
    "       esim_diffcheck fidelity [--n N] [--seed S] [--partitions 2,4]\n"
    "       esim_diffcheck granularity [--n N] [--seed S] "
    "[--partitions 2,4]\n"
    "       esim_diffcheck memo [--n N] [--seed S] [--partitions 2,4]\n"
    "       esim_diffcheck selftest\n";

/// A malformed command line: main prints the message and the usage, and
/// exits 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

struct Args {
  std::string mode;
  std::string replay_file;
  int n = 25;
  std::uint64_t seed = 1;
  std::vector<std::uint32_t> partitions = {1, 2, 4};
  bool partitions_set = false;
  std::string out_prefix = "diffcheck_repro_";
  bool inject_tiebreak_bug = false;
};

/// `text` as an unsigned decimal in [min, max], else a UsageError naming
/// `what`.
std::uint64_t parse_number(const std::string& what, const std::string& text,
                           std::uint64_t min, std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v < min || v > max) {
    throw UsageError(what + " wants an integer in [" + std::to_string(min) +
                     ", " + std::to_string(max) + "], got '" + text + "'");
  }
  return v;
}

std::vector<std::uint32_t> parse_partitions(const std::string& s) {
  std::vector<std::uint32_t> out;
  std::istringstream is{s};
  std::string part;
  while (std::getline(is, part, ',')) {
    out.push_back(static_cast<std::uint32_t>(parse_number(
        "--partitions", part, 1, std::numeric_limits<std::uint32_t>::max())));
  }
  if (out.empty()) throw UsageError("--partitions wants a list like 1,2,4");
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw UsageError("missing subcommand");
  a.mode = argv[1];
  int i = 2;
  if (a.mode == "replay") {
    if (argc < 3) throw UsageError("replay wants a scenario FILE");
    a.replay_file = argv[2];
    i = 3;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(arg + " wants a value");
      return argv[++i];
    };
    if (arg == "--n") {
      a.n = static_cast<int>(
          parse_number("--n", value(), 1, std::numeric_limits<int>::max()));
    } else if (arg == "--seed") {
      a.seed = parse_number("--seed", value(), 0,
                            std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--partitions") {
      a.partitions = parse_partitions(value());
      a.partitions_set = true;
    } else if (arg == "--out") {
      a.out_prefix = value();
    } else if (arg == "--inject-tiebreak-bug") {
      a.inject_tiebreak_bug = true;
    } else {
      throw UsageError("unknown argument '" + arg + "'");
    }
  }
  return a;
}

/// " fingerprint=<16 hex>" for the closing summary line.
std::string fingerprint_field(const std::vector<Digest>& digests) {
  return " fingerprint=" +
         esim::check::fingerprint_hex(esim::check::corpus_fingerprint(digests));
}

/// Runs check_all, logging its digests to `digests`, and prints each
/// report; returns the first failing report, if any.
bool run_checks(const DiffRunner& runner, const Scenario& sc,
                const Args& args, DiffReport* failing,
                std::vector<Digest>& digests) {
  const auto reports = runner.check_all(sc, args.partitions,
                                        args.inject_tiebreak_bug, &digests);
  bool ok = true;
  for (const DiffReport& r : reports) {
    if (r.equivalent) {
      std::cout << "  " << r.base.label() << " vs " << r.other.label()
                << ": EQUIVALENT\n";
    } else {
      std::cout << r.to_string() << "\n";
      if (ok && failing != nullptr) *failing = r;
      ok = false;
    }
  }
  return ok;
}

int cmd_fuzz(const Args& args) {
  DiffRunner runner;
  ScenarioFuzzer fuzzer{args.seed};
  int failures = 0;
  std::vector<Digest> digests;
  for (int k = 0; k < args.n; ++k) {
    Scenario sc = fuzzer.next();
    std::cout << "[" << (k + 1) << "/" << args.n << "] " << sc.summary()
              << "\n";
    DiffReport failing;
    if (run_checks(runner, sc, args, &failing, digests)) continue;

    ++failures;
    std::cout << "shrinking repro...\n";
    const EngineSpec base = failing.base.engine;
    const EngineSpec other = failing.other.engine;
    const Scenario shrunk = fuzzer.shrink(sc, [&](const Scenario& cand) {
      return !runner.diff(cand, base, other).equivalent;
    });
    const std::string path =
        args.out_prefix + std::to_string(k) + ".scenario";
    esim::check::save_scenario(shrunk, path);
    std::cout << "shrunk to " << shrunk.summary() << "\nrepro written: "
              << path << "  (replay with: esim_diffcheck replay " << path
              << ")\n"
              << runner.diff(shrunk, base, other).to_string() << "\n";
  }
  std::cout << (args.n - failures) << "/" << args.n
            << " scenarios equivalent across engines"
            << fingerprint_field(digests) << "\n";
  return failures == 0 ? 0 : 1;
}

int cmd_replay(const Args& args) {
  const Scenario sc = esim::check::load_scenario(args.replay_file);
  std::cout << "replaying " << args.replay_file << ": " << sc.summary()
            << "\n";
  DiffRunner runner;
  std::vector<Digest> digests;
  const bool ok = run_checks(runner, sc, args, nullptr, digests);
  std::cout << (ok ? "replay equivalent across engines"
                   : "replay DIVERGED")
            << fingerprint_field(digests) << "\n";
  return ok ? 0 : 1;
}

// --- the corpus table ---------------------------------------------------

/// What a corpus accumulates for its closing line.
struct Tally {
  std::uint64_t rows = 0;
  std::uint64_t shadow = 0;
  std::uint64_t transitions = 0;
  esim::memo::MemoStats memo;
};

/// One scenario of a corpus: its summary, and its check (a group list
/// over check::run_groups) returning "" or the failing comparisons.
struct Case {
  std::string summary;
  std::function<std::string(const std::vector<std::uint32_t>& partitions,
                            Tally& tally, std::vector<Digest>* log)>
      check;
};

struct Corpus {
  const char* name;
  std::vector<std::uint32_t> partitions;  ///< default --partitions
  Case (*make)(std::uint64_t scenario_seed);
  const char* pass;  ///< per-scenario line on success
  /// Closing-line text between "<passed>/<n> " and the fingerprint.
  std::string (*closing)(const Tally& tally);
  /// A passing corpus still fails when this count is zero: the checked
  /// layer never engaged (nullptr: nothing to engage).
  std::uint64_t (*engaged)(const Tally& tally);
  const char* idle;  ///< the message for that failure
};

Case hybrid_case(std::uint64_t seed) {
  const Scenario sc = esim::check::random_hybrid_scenario(seed);
  return {sc.summary(), [sc](const auto& partitions, Tally&, auto* log) {
            return esim::check::check_hybrid(sc, partitions, log);
          }};
}

Case fidelity_case(std::uint64_t seed) {
  const Scenario sc = esim::check::random_hybrid_scenario(seed);
  return {sc.summary(), [sc](const auto& partitions, Tally& t, auto* log) {
            return esim::check::check_fidelity(sc, partitions, &t.rows,
                                               &t.shadow, log);
          }};
}

Case granularity_case(std::uint64_t seed) {
  const Scenario sc = esim::check::random_granularity_scenario(seed);
  return {sc.summary(), [sc](const auto& partitions, Tally& t, auto* log) {
            return esim::check::check_granularity(sc, partitions,
                                                  &t.transitions, log);
          }};
}

Case memo_case(std::uint64_t seed) {
  // Small flows that drain well inside half a period, so phase boundaries
  // are usually quiescent and the memo layer actually engages.
  ScenarioFuzzer::Options fuzz_options;
  fuzz_options.min_flows = 3;
  fuzz_options.max_flows = 6;
  fuzz_options.max_flow_mss = 20;
  ScenarioFuzzer fuzzer{seed, fuzz_options};
  const std::uint32_t phases = 3 + static_cast<std::uint32_t>(seed % 3);
  const std::int64_t period_ns =
      900'000 + static_cast<std::int64_t>(seed % 5) * 150'000;
  const esim::memo::PeriodicScenario ps =
      esim::memo::make_periodic(fuzzer.next(), phases, period_ns);
  return {ps.scenario.summary() + " (" + std::to_string(phases) +
              " phases of " + std::to_string(period_ns) + "ns)",
          [ps](const auto& partitions, Tally& t, auto* log) {
            return esim::memo::check_memo(ps, partitions, {}, &t.memo, log);
          }};
}

const Corpus kCorpora[] = {
    {"hybrid", {2, 3}, hybrid_case,
     "batching on/off + sequential vs pdes: EQUIVALENT",
     [](const Tally&) {
       return std::string{"hybrid scenarios digest-identical with batching "
                          "active"};
     },
     nullptr, nullptr},
    {"fidelity", {2, 4}, fidelity_case, "fidelity off vs on: DIGEST-IDENTICAL",
     [](const Tally& t) {
       return "scenarios digest-identical with fidelity on (" +
              std::to_string(t.shadow) + " shadow samples, " +
              std::to_string(t.rows) + " time-series rows)";
     },
     [](const Tally& t) { return t.shadow; },
     "fidelity check produced ZERO shadow samples — the observatory never "
     "engaged"},
    {"granularity", {2, 4}, granularity_case,
     "adaptive tiers, batching on/off + sequential vs pdes: EQUIVALENT",
     [](const Tally& t) {
       return "scenarios digest-identical with the adaptive controller on (" +
              std::to_string(t.transitions) + " tier transitions)";
     },
     [](const Tally& t) { return t.transitions; },
     "granularity check executed ZERO tier transitions — the controller "
     "never engaged"},
    {"memo", {2, 4}, memo_case,
     "memo on/off + chunked vs reference: EQUIVALENT",
     [](const Tally& t) {
       const esim::memo::MemoStats& m = t.memo;
       std::ostringstream os;
       os << "periodic scenarios digest-identical with memoization on ("
          << m.lookups << " lookups, " << m.hits << " hits, " << m.misses
          << " misses, " << m.near_misses << " near misses [pattern "
          << m.near_miss_pattern << ", route " << m.near_miss_route
          << ", stale connection " << m.near_miss_stale_connection << "], "
          << m.port_wrap_skips << " port-wrap skips, " << m.stores
          << " stores, " << m.store_aborts << " store aborts, "
          << m.fast_forwarded_ns << "ns fast-forwarded)";
       return os.str();
     },
     [](const Tally& t) { return t.memo.hits; },
     "memo check produced ZERO cache hits — memoization never engaged"},
};

int cmd_corpus(const Corpus& corpus, const Args& args) {
  // Sequential-vs-PDES needs real partitioning; 1 would only re-run the
  // sequential config against a single-partition engine.
  const std::vector<std::uint32_t>& partitions =
      args.partitions_set ? args.partitions : corpus.partitions;
  int failures = 0;
  Tally tally;
  std::vector<Digest> digests;
  for (int k = 0; k < args.n; ++k) {
    const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(k);
    const Case c = corpus.make(seed);
    std::cout << "[" << (k + 1) << "/" << args.n << "] seed " << seed << ": "
              << c.summary << "\n";
    const std::string diag = c.check(partitions, tally, &digests);
    if (diag.empty()) {
      std::cout << "  " << corpus.pass << "\n";
    } else {
      ++failures;
      std::cout << diag << "\n  reproduce with: esim_diffcheck "
                << corpus.name << " --n 1 --seed " << seed << "\n";
    }
  }
  std::cout << (args.n - failures) << "/" << args.n << " "
            << corpus.closing(tally) << fingerprint_field(digests) << "\n";
  if (failures != 0) return 1;
  if (corpus.engaged != nullptr && corpus.engaged(tally) == 0) {
    std::cerr << "esim_diffcheck: " << corpus.idle << "\n";
    return 1;
  }
  return 0;
}

/// A scenario engineered to put two packets on one switch at the same
/// instant: two equal flows from the two hosts of ToR 0, started at the
/// same nanosecond, both targeting host 0 of ToR 1. Their SYNs traverse
/// identical host->ToR links, collide at the ToR, and the FES same-time
/// tie-break alone decides which serializes first.
Scenario tie_rich_scenario() {
  Scenario sc;
  sc.seed = 42;
  sc.tors = 2;
  sc.spines = 1;
  sc.hosts_per_tor = 2;
  sc.duration_ns = 4'000'000;
  sc.flows = {
      FlowSpec{0, 2, 40'000, 10'000, 1},
      FlowSpec{1, 2, 40'000, 10'000, 2},
  };
  sc.validate();
  return sc;
}

int cmd_selftest() {
  DiffRunner runner;
  const Scenario sc = tie_rich_scenario();
  std::cout << "selftest scenario: " << sc.summary() << "\n";

  const EngineSpec normal{};
  EngineSpec inverted;
  inverted.invert_tiebreak = true;

  // 1. Sanity: identical clean configurations must agree on the FULL
  // digest — otherwise divergence below would mean nothing.
  const DiffReport clean = runner.diff(sc, normal, normal);
  std::cout << "clean rerun: " << (clean.equivalent ? "EQUIVALENT" : "DIVERGED")
            << "\n";
  if (!clean.equivalent) {
    std::cerr << "selftest FAILED: clean reruns disagree\n"
              << clean.to_string() << "\n";
    return 1;
  }

  // 2. The injected ordering bug must be caught...
  const DiffReport bug = runner.diff(sc, normal, inverted);
  if (bug.equivalent) {
    std::cerr << "selftest FAILED: inverted FES tie-break was NOT detected "
                 "— the digest is blind to event ordering\n";
    return 1;
  }
  std::cout << "injected tie-break bug detected:\n" << bug.to_string() << "\n";

  // ...and localized to a first divergent packet record.
  if (!bug.first.found) {
    std::cerr << "selftest FAILED: divergence detected but not localized\n";
    return 1;
  }

  // 3. Shrinking must preserve the failure and end at a valid scenario.
  ScenarioFuzzer fuzzer{sc.seed};
  const Scenario shrunk = fuzzer.shrink(sc, [&](const Scenario& cand) {
    return !runner.diff(cand, normal, inverted).equivalent;
  });
  shrunk.validate();
  if (runner.diff(shrunk, normal, inverted).equivalent) {
    std::cerr << "selftest FAILED: shrunk scenario no longer reproduces\n";
    return 1;
  }
  std::cout << "shrunk repro still fails: " << shrunk.summary() << "\n";

  // 4. Round-trip: the repro file format must reproduce the scenario.
  if (Scenario::parse(shrunk.serialize()) != shrunk) {
    std::cerr << "selftest FAILED: scenario serialization does not "
                 "round-trip\n";
    return 1;
  }

  std::cout << "selftest PASSED\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "fuzz") return cmd_fuzz(args);
    if (args.mode == "replay") return cmd_replay(args);
    if (args.mode == "selftest") return cmd_selftest();
    for (const Corpus& corpus : kCorpora) {
      if (args.mode == corpus.name) return cmd_corpus(corpus, args);
    }
    throw UsageError("unknown subcommand '" + args.mode + "'");
  } catch (const UsageError& e) {
    std::cerr << "esim_diffcheck: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "esim_diffcheck: " << e.what() << "\n";
    return 2;
  }
}
