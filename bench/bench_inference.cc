// Inference-path benchmark (DESIGN.md §8): MicroModel packets/s through
// the compiled InferenceSession (predict) vs the naive Tensor step path
// (predict_reference), for both trunk kinds across hidden sizes.
//
// The session must be *bit-identical* to the reference — the speedup
// comes from the workspace plan (no per-step allocation, no intermediate
// tensors) and the packed per-lane SIMD kernels, not from reordering
// floating-point math. The bench cross-checks identity on every config
// and fails (exit 1) on any mismatch, so a perf regression can never hide
// a correctness one.
//
// A second phase sweeps sequence-mode batched inference (DESIGN.md §8a):
// MicroModel::predict_batch, one stream coalesced N timesteps at a time,
// for N in {1, 4, 16, 64}, against per-packet predict() on the same
// model. Every batched prediction is cross-checked against per-packet
// predict() calls.
//
// A third phase runs a small hybrid simulation through ApproxCluster with
// telemetry on: session vs Config::reference_inference (the
// approx.inference_ns means).
//
// Writes machine-readable BENCH_inference.json into the working directory
// (format documented in EXPERIMENTS.md). `--batch` runs only the batched
// sweep (the sanitizer smoke in scripts/check.sh uses it).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "approx/features.h"
#include "approx/micro_model.h"
#include "bench_common.h"
#include "core/experiment.h"
#include "sim/random.h"
#include "telemetry/report.h"

namespace {

using esim::approx::MicroModel;
using esim::approx::PacketFeatures;
using esim::bench::print_header;
using esim::bench::print_note;
using esim::bench::quick_mode;
using esim::ml::TrunkKind;

/// Deterministic synthetic feature stream: shaped like FeatureExtractor
/// output (ids, gaps, size, macro one-hot) but driven straight from an
/// Rng so the bench measures inference alone.
std::vector<PacketFeatures> make_features(std::size_t n, std::uint64_t seed) {
  esim::sim::Rng rng{seed};
  std::vector<PacketFeatures> out(n);
  for (auto& f : out) {
    for (std::size_t i = 0; i < 8; ++i) f.v[i] = rng.uniform(-1.0, 1.0);
    f.v[8] = rng.bernoulli(0.2) ? 1.0 : 0.0;
    const std::size_t macro = rng.uniform_int(esim::approx::kMacroStates);
    for (std::size_t i = 0; i < esim::approx::kMacroStates; ++i) {
      f.v[9 + i] = i == macro ? 1.0 : 0.0;
    }
  }
  return out;
}

/// Streams every feature vector through `predict`, returns packets/s.
/// `sink` accumulates the predictions so the loop cannot be elided.
template <typename Predict>
double run_stream(MicroModel& model, const std::vector<PacketFeatures>& feats,
                  Predict&& predict, double* sink) {
  model.reset_state();
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (const auto& f : feats) {
    const auto p = predict(model, f);
    acc += p.drop_probability + p.latency_seconds;
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  *sink += acc;
  return static_cast<double>(feats.size()) / dt.count();
}

double best_of(int repeats, const std::function<double()>& run) {
  double best = 0.0;
  for (int i = 0; i < repeats; ++i) best = std::max(best, run());
  return best;
}

struct Row {
  std::string name;
  double reference_pps = 0.0;
  double session_pps = 0.0;
  bool bit_identical = true;
  double speedup() const {
    return reference_pps > 0.0 ? session_pps / reference_pps : 0.0;
  }
};

/// Session vs reference on the same stream, double-for-double.
bool check_bit_identical(MicroModel& model,
                         const std::vector<PacketFeatures>& feats,
                         std::size_t steps) {
  model.reset_state();
  std::vector<MicroModel::Prediction> expect;
  expect.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    expect.push_back(model.predict_reference(feats[i]));
  }
  model.reset_state();
  for (std::size_t i = 0; i < steps; ++i) {
    const auto got = model.predict(feats[i]);
    if (got.drop_probability != expect[i].drop_probability ||
        got.latency_seconds != expect[i].latency_seconds) {
      return false;
    }
  }
  return true;
}

/// Streams the whole feature list through MicroModel::predict_batch in
/// chunks of `n`, returns packets/s (sequence mode: one recurrent stream,
/// the input-side matmul batched across the chunk).
double run_sequence_batch(MicroModel& model, std::size_t n,
                          const std::vector<PacketFeatures>& feats,
                          double* sink) {
  constexpr std::size_t kDim = PacketFeatures::kDim;
  model.reset_state();
  model.reserve_batch(n);
  std::vector<double> x(n * kDim);
  std::vector<MicroModel::Prediction> preds(n);
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  std::size_t done = 0;
  while (done < feats.size()) {
    const std::size_t take = std::min(n, feats.size() - done);
    for (std::size_t i = 0; i < take; ++i) {
      const auto& f = feats[done + i];
      std::copy(f.v.begin(), f.v.end(), x.begin() + i * kDim);
    }
    model.predict_batch(std::span<const double>{x.data(), take * kDim},
                        std::span<MicroModel::Prediction>{preds.data(), take});
    acc += preds[take - 1].drop_probability + preds[0].latency_seconds;
    done += take;
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  *sink += acc;
  return static_cast<double>(feats.size()) / dt.count();
}

/// predict_batch chunks vs per-packet predict() on a fresh model of the
/// same seed, double-for-double.
bool check_sequence_identical(const MicroModel::Config& cfg, std::size_t n,
                              const std::vector<PacketFeatures>& feats,
                              std::size_t steps) {
  constexpr std::size_t kDim = PacketFeatures::kDim;
  MicroModel sequential{cfg};
  MicroModel batched{cfg};
  batched.reserve_batch(n);
  std::vector<double> x(n * kDim);
  std::vector<MicroModel::Prediction> preds(n);
  std::size_t done = 0;
  while (done < steps) {
    const std::size_t take = std::min(n, steps - done);
    for (std::size_t i = 0; i < take; ++i) {
      const auto& f = feats[done + i];
      std::copy(f.v.begin(), f.v.end(), x.begin() + i * kDim);
    }
    batched.predict_batch(std::span<const double>{x.data(), take * kDim},
                          std::span<MicroModel::Prediction>{preds.data(), take});
    for (std::size_t i = 0; i < take; ++i) {
      const auto ref = sequential.predict(feats[done + i]);
      if (preds[i].drop_probability != ref.drop_probability ||
          preds[i].latency_seconds != ref.latency_seconds) {
        return false;
      }
    }
    done += take;
  }
  return true;
}

struct BatchRow {
  std::string name;
  std::size_t n = 1;
  double stream_pps = 0.0;
  double speedup = 0.0;  // stream_pps over per-packet predict()
  bool bit_identical = true;
};

/// Mean of the approx.inference_ns histogram from one hybrid run, or -1
/// when the metric is missing. `count` receives the sample count.
double hybrid_inference_ns_mean(const esim::core::RunResult& result,
                                std::uint64_t* count) {
  const auto* h = result.metrics.find("approx.inference_ns");
  if (h == nullptr || h->count == 0) return -1.0;
  *count = h->count;
  return static_cast<double>(h->sum) / static_cast<double>(h->count);
}

}  // namespace

int main(int argc, char** argv) {
  // --batch: only the batched sweep, at reduced scale — the sanitizer
  // smoke in scripts/check.sh cares about memory discipline and the
  // bit-identity gates, not throughput numbers.
  bool batch_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--batch") == 0) batch_only = true;
  }
  const bool reduced = quick_mode() || batch_only;
  const std::size_t n = reduced ? 2'048 : 200'000;
  const int repeats = batch_only ? 1 : (quick_mode() ? 2 : 3);
  const std::uint64_t seed = 20250805;

  print_header("bench_inference",
               "MicroModel packets/s: InferenceSession vs naive step()");
  std::printf("%zu packets per run, best of %d (two-layer trunks)\n\n", n,
              repeats);

  const auto feats = make_features(n, seed);

  struct Case {
    TrunkKind trunk;
    std::size_t hidden;
  };
  std::vector<Case> cases;
  for (const TrunkKind trunk : {TrunkKind::Lstm, TrunkKind::Gru}) {
    for (const std::size_t hidden : {16, 32, 64}) {
      cases.push_back({trunk, hidden});
    }
  }

  double sink = 0.0;
  std::vector<Row> rows;
  bool all_identical = true;
  if (!batch_only) {
    for (const auto& c : cases) {
      MicroModel::Config cfg;
      cfg.trunk = c.trunk;
      cfg.hidden = c.hidden;
      cfg.layers = 2;
      cfg.seed = 7;
      MicroModel model{cfg};
      model.set_latency_normalization(2.0, 0.8);

      Row r{std::string{esim::ml::trunk_kind_name(c.trunk)} + "_h" +
            std::to_string(c.hidden)};
      r.bit_identical =
          check_bit_identical(model, feats, std::min<std::size_t>(n, 512));
      all_identical = all_identical && r.bit_identical;
      r.reference_pps = best_of(repeats, [&] {
        return run_stream(
            model, feats,
            [](MicroModel& m, const PacketFeatures& f) {
              return m.predict_reference(f);
            },
            &sink);
      });
      r.session_pps = best_of(repeats, [&] {
        return run_stream(
            model, feats,
            [](MicroModel& m, const PacketFeatures& f) { return m.predict(f); },
            &sink);
      });
      rows.push_back(r);
    }

    std::printf("%-10s %16s %16s %9s %9s\n", "config", "reference pkt/s",
                "session pkt/s", "speedup", "bitident");
    for (const auto& r : rows) {
      std::printf("%-10s %16.0f %16.0f %8.2fx %9s\n", r.name.c_str(),
                  r.reference_pps, r.session_pps, r.speedup(),
                  r.bit_identical ? "yes" : "NO");
    }
  }

  // Phase 2: the sequence-mode batch sweep (DESIGN.md §8a). For every
  // config, per-packet predict() is the baseline the simulator runs;
  // each N streams the same features through predict_batch chunks of N.
  // Each row's bit-identity gate cross-checks the batched outputs against
  // per-packet predictions, double for double.
  const std::vector<std::size_t> batch_ns = {1, 4, 16, 64};
  std::vector<BatchRow> batch_rows;
  std::printf("\nsequence-mode predict_batch (chunks of N) vs per-packet "
              "predict\n");
  std::printf("%-10s %4s %16s %16s %9s %9s\n", "config", "N", "predict pkt/s",
              "batch pkt/s", "speedup", "bitident");
  for (const auto& c : cases) {
    MicroModel::Config cfg;
    cfg.trunk = c.trunk;
    cfg.hidden = c.hidden;
    cfg.layers = 2;
    cfg.seed = 7;
    MicroModel model{cfg};
    model.set_latency_normalization(2.0, 0.8);
    const std::string name = std::string{esim::ml::trunk_kind_name(c.trunk)} +
                             "_h" + std::to_string(c.hidden);
    const double predict_pps = best_of(repeats, [&] {
      return run_stream(
          model, feats,
          [](MicroModel& m, const PacketFeatures& f) { return m.predict(f); },
          &sink);
    });
    for (const std::size_t batch_n : batch_ns) {
      BatchRow br;
      br.name = name;
      br.n = batch_n;
      br.stream_pps = best_of(repeats, [&] {
        return run_sequence_batch(model, batch_n, feats, &sink);
      });
      br.speedup = predict_pps > 0.0 ? br.stream_pps / predict_pps : 0.0;
      br.bit_identical = check_sequence_identical(
          cfg, batch_n, feats, std::min<std::size_t>(n, 256));
      all_identical = all_identical && br.bit_identical;
      batch_rows.push_back(br);
      std::printf("%-10s %4zu %16.0f %16.0f %8.2fx %9s\n", br.name.c_str(),
                  br.n, predict_pps, br.stream_pps, br.speedup,
                  br.bit_identical ? "yes" : "NO");
    }
  }

  // Phase 3: the session-vs-reference comparison end to end — a hybrid
  // run through ApproxCluster with telemetry on, once per inference path.
  // The approx.inference_ns histogram is the per-prediction wall cost as
  // the cluster sees it (feature extraction included).
  std::uint64_t session_count = 0, reference_count = 0;
  double session_ns = -1.0, reference_ns = -1.0;
  bool hybrid_identical = true;
  if (!batch_only) {
    esim::core::ExperimentConfig hcfg;
    hcfg.net.spec.clusters = 3;
    hcfg.net.spec.tors_per_cluster = 2;
    hcfg.net.spec.aggs_per_cluster = 2;
    hcfg.net.spec.hosts_per_tor = 2;
    hcfg.net.spec.cores = 2;
    hcfg.load = 0.3;
    hcfg.duration = esim::sim::SimTime::from_ms(quick_mode() ? 5 : 40);
    hcfg.model.hidden = 16;
    hcfg.model.layers = 2;
    hcfg.model.seed = 7;
    hcfg.telemetry = true;
    esim::core::TrainedModels models;
    models.ingress = std::make_unique<MicroModel>(hcfg.model);
    models.egress = std::make_unique<MicroModel>(hcfg.model);
    const auto hybrid_session =
        esim::core::run_hybrid_simulation(hcfg, hcfg.net.spec, models);
    hcfg.approx.reference_inference = true;
    const auto hybrid_reference =
        esim::core::run_hybrid_simulation(hcfg, hcfg.net.spec, models);
    session_ns = hybrid_inference_ns_mean(hybrid_session, &session_count);
    reference_ns = hybrid_inference_ns_mean(hybrid_reference, &reference_count);
    hybrid_identical =
        hybrid_session.events_executed == hybrid_reference.events_executed &&
        hybrid_session.mean_fct_seconds == hybrid_reference.mean_fct_seconds;
    all_identical = all_identical && hybrid_identical;
    std::printf(
        "\nhybrid approx.inference_ns (h=%zu, %llu predictions): "
        "reference %.0f ns -> session %.0f ns (%.2fx), runs identical: %s\n",
        hcfg.model.hidden,
        static_cast<unsigned long long>(session_count), reference_ns,
        session_ns, session_ns > 0.0 ? reference_ns / session_ns : 0.0,
        hybrid_identical ? "yes" : "NO");
  }

  if (batch_only) {
    print_note("batch-only mode: no JSON written");
    print_note("checksum " + std::to_string(sink));
    return all_identical ? 0 : 1;
  }

  double geomean = 0.0;
  double max_speedup = 0.0;
  for (const auto& r : rows) {
    geomean += std::log(r.speedup());
    max_speedup = std::max(max_speedup, r.speedup());
  }
  geomean = std::exp(geomean / static_cast<double>(rows.size()));

  esim::telemetry::RunReport report{"inference"};
  report.set("bench", "inference");
  report.set("packets_per_run", static_cast<std::uint64_t>(n));
  report.set("layers", static_cast<std::uint64_t>(2));
  report.set("bit_identical", all_identical);
  report.set("geomean_speedup", geomean);
  report.set("max_speedup", max_speedup);
  for (const auto& r : rows) {
    report.set("configs." + r.name + ".reference_pps", r.reference_pps);
    report.set("configs." + r.name + ".session_pps", r.session_pps);
    report.set("configs." + r.name + ".speedup", r.speedup());
    report.set("configs." + r.name + ".bit_identical", r.bit_identical);
  }
  // Batched sweep (EXPERIMENTS.md): batch.<config>.N<k>.* — the
  // sequence-mode stream rate and its ratio to per-packet predict().
  for (const auto& br : batch_rows) {
    const std::string key = "batch." + br.name + ".N" + std::to_string(br.n);
    report.set(key + ".stream_pps", br.stream_pps);
    report.set(key + ".speedup", br.speedup);
    report.set(key + ".bit_identical", br.bit_identical);
  }
  report.set("hybrid.inference_count", session_count);
  report.set("hybrid.reference_inference_ns_mean", reference_ns);
  report.set("hybrid.session_inference_ns_mean", session_ns);
  report.set("hybrid.inference_ns_speedup",
             session_ns > 0.0 ? reference_ns / session_ns : 0.0);
  report.set("hybrid.runs_identical", hybrid_identical);
  const std::string path = "BENCH_inference.json";
  if (report.write(path)) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::printf("WARNING: could not write %s\n", path.c_str());
  }

  print_note(
      "speedup = fused workspace session over naive Tensor step(); both "
      "paths stream the same state and must agree bit-for-bit.");
  print_note("checksum " + std::to_string(sink));
  return all_identical ? 0 : 1;
}
