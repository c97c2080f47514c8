// Holds the train/infer split contract (DESIGN.md §8):
//   * InferenceSession predictions are bit-identical to the naive Tensor
//     step() reference — LSTM and GRU trunks, single- and multi-layer
//     stacks, serialized-then-reloaded models, and the full hybrid run;
//   * predict() performs zero heap allocations (counted by replacing the
//     global operator new in this translation unit);
//   * sessions are immutable snapshots — in-place weight updates are
//     invisible until recompile() re-snapshots;
//   * MicroModel copies never share streamed recurrent state.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "approx/micro_model.h"
#include "core/experiment.h"
#include "ml/inference.h"
#include "ml/optimizer.h"
#include "ml/sequence_model.h"
#include "sim/random.h"

// Allocation-counting hook: every path through the replaceable global
// allocation functions funnels through here. Counting is off by default
// so the test harness's own allocations are invisible. GCC's
// -Wmismatched-new-delete pairs the replaced operator new with the free()
// in the replaced operator delete — a false positive here, since both
// sides of every pair go through this file's malloc-backed operators.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};

struct AllocationCounter {
  AllocationCounter() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() { g_count_allocs.store(false, std::memory_order_relaxed); }
  std::size_t count() const {
    return g_alloc_count.load(std::memory_order_relaxed);
  }
};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace esim {
namespace {

using approx::MicroModel;
using approx::PacketFeatures;

PacketFeatures random_features(sim::Rng& rng) {
  PacketFeatures f;
  for (auto& v : f.v) v = rng.uniform() * 2.0 - 1.0;
  return f;
}

// Streams `steps` random packets through both paths of one model and
// requires every prediction pair to match to the bit.
void expect_bit_identical(MicroModel& model, std::uint64_t seed,
                          int steps = 50) {
  sim::Rng rng{seed};
  model.reset_state();
  for (int i = 0; i < steps; ++i) {
    const PacketFeatures f = random_features(rng);
    const auto fused = model.predict(f);
    const auto naive = model.predict_reference(f);
    ASSERT_EQ(fused.drop_probability, naive.drop_probability)
        << "step " << i;
    ASSERT_EQ(fused.latency_seconds, naive.latency_seconds) << "step " << i;
  }
}

TEST(InferenceSession, BitIdenticalToReferenceLstm) {
  for (const std::size_t hidden : {5UL, 16UL, 32UL}) {
    for (const std::size_t layers : {1UL, 2UL, 3UL}) {
      MicroModel::Config cfg;
      cfg.hidden = hidden;
      cfg.layers = layers;
      cfg.trunk = ml::TrunkKind::Lstm;
      cfg.seed = 7 * hidden + layers;
      MicroModel m{cfg};
      SCOPED_TRACE("lstm hidden=" + std::to_string(hidden) +
                   " layers=" + std::to_string(layers));
      expect_bit_identical(m, cfg.seed + 1);
    }
  }
}

TEST(InferenceSession, BitIdenticalToReferenceGru) {
  // hidden = 5 makes 3H = 15 exercise the fused kernel's scalar tail.
  for (const std::size_t hidden : {5UL, 16UL, 32UL}) {
    for (const std::size_t layers : {1UL, 2UL, 3UL}) {
      MicroModel::Config cfg;
      cfg.hidden = hidden;
      cfg.layers = layers;
      cfg.trunk = ml::TrunkKind::Gru;
      cfg.seed = 11 * hidden + layers;
      MicroModel m{cfg};
      SCOPED_TRACE("gru hidden=" + std::to_string(hidden) +
                   " layers=" + std::to_string(layers));
      expect_bit_identical(m, cfg.seed + 1);
    }
  }
}

// The session and the reference step() share ml/kernels.h, so the two
// tests above cannot see a kernel change that moves both. These hashes
// of a 300-packet prediction stream were recorded from the scalar Tensor
// loops that the shared kernels replaced, and must hold under every
// ESIM_INFERENCE_ISA variant the host supports.
TEST(InferenceSession, PredictionStreamMatchesParentGolden) {
  struct Case {
    ml::TrunkKind trunk;
    std::size_t hidden;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {ml::TrunkKind::Lstm, 5, 0xe7c141193432729a},
      {ml::TrunkKind::Lstm, 16, 0x4634877582b11de9},
      {ml::TrunkKind::Gru, 5, 0x97aa1e46c7bccfd9},
      {ml::TrunkKind::Gru, 16, 0x54a541f79050c308},
  };
  const auto fold = [](std::uint64_t h, double v) {
    h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
    return h ^ (h >> 32);
  };
  for (const Case& c : cases) {
    MicroModel::Config cfg;
    cfg.hidden = c.hidden;
    cfg.layers = 2;
    cfg.trunk = c.trunk;
    cfg.seed = 41;
    MicroModel m{cfg};
    sim::Rng rng{43};
    std::uint64_t h = 0;
    for (int i = 0; i < 300; ++i) {
      const auto p = m.predict(random_features(rng));
      h = fold(fold(h, p.drop_probability), p.latency_seconds);
    }
    EXPECT_EQ(h, c.hash) << ml::trunk_kind_name(c.trunk) << " hidden "
                         << c.hidden << ": 0x" << std::hex << h;
  }
}

TEST(InferenceSession, TrunkOnlySessionMatchesStep) {
  for (const ml::TrunkKind kind : {ml::TrunkKind::Lstm, ml::TrunkKind::Gru}) {
    sim::Rng init{21};
    const auto model = ml::make_sequence_model(kind, 6, 9, 2, init);
    auto session = model->make_inference_session();
    EXPECT_EQ(session->output_size(), 0u);
    auto state = model->make_state(1);
    sim::Rng rng{22};
    for (int t = 0; t < 20; ++t) {
      ml::Tensor x{1, 6};
      for (std::size_t j = 0; j < 6; ++j) x.at(0, j) = rng.uniform();
      const ml::Tensor ref = model->step(x, *state);
      const auto out =
          session->predict(std::span<const double>{x.data(), 6});
      ASSERT_EQ(out.size(), 9u);
      for (std::size_t j = 0; j < 9; ++j) {
        ASSERT_EQ(out[j], ref.at(0, j))
            << ml::trunk_kind_name(kind) << " t=" << t << " j=" << j;
      }
    }
  }
}

TEST(InferenceSession, SnapshotSemanticsAndRecompile) {
  MicroModel::Config cfg;
  cfg.hidden = 8;
  MicroModel m{cfg};
  expect_bit_identical(m, 31, 5);
  // Sessions snapshot the weights at compile time: in-place updates
  // (what SgdMomentum and load_parameters do) are invisible until
  // recompile() re-snapshots. First record the compiled model's output…
  PacketFeatures probe;
  probe.v[0] = 0.4;
  probe.v[7] = -0.2;
  m.reset_state();
  const auto before = m.predict(probe);
  // …then perturb every weight in place.
  for (auto& p : m.parameters()) {
    if (p.name == "norm") continue;
    for (std::size_t i = 0; i < p.value->rows(); ++i) {
      for (std::size_t j = 0; j < p.value->cols(); ++j) {
        p.value->at(i, j) += 0.125 * static_cast<double>((i + j) % 3);
      }
    }
  }
  m.reset_state();
  const auto stale = m.predict(probe);
  EXPECT_EQ(stale.drop_probability, before.drop_probability);
  EXPECT_EQ(stale.latency_seconds, before.latency_seconds);
  // recompile() picks up the new values and restores bit-identity with
  // the (always-live) reference path.
  m.recompile();
  m.reset_state();
  const auto fresh = m.predict(probe);
  EXPECT_NE(fresh.drop_probability, before.drop_probability);
  expect_bit_identical(m, 32, 5);
}

TEST(InferenceSession, PredictIsAllocationFree) {
  for (const ml::TrunkKind kind : {ml::TrunkKind::Lstm, ml::TrunkKind::Gru}) {
    MicroModel::Config cfg;
    cfg.hidden = 32;
    cfg.layers = 2;
    cfg.trunk = kind;
    MicroModel m{cfg};
    sim::Rng rng{41};
    const PacketFeatures f = random_features(rng);
    (void)m.predict(f);  // warm up (lazy libc/libm initialisation)
    double sink = 0.0;
    AllocationCounter counter;
    for (int i = 0; i < 100; ++i) {
      const auto p = m.predict(f);
      sink += p.drop_probability + p.latency_seconds;
    }
    EXPECT_EQ(counter.count(), 0u) << ml::trunk_kind_name(kind);
    EXPECT_GT(sink, 0.0);
  }
}

TEST(InferenceSession, ReloadedModelBitIdenticalAndInferenceOnly) {
  for (const ml::TrunkKind kind : {ml::TrunkKind::Lstm, ml::TrunkKind::Gru}) {
    MicroModel::Config cfg;
    cfg.hidden = 12;
    cfg.layers = 2;
    cfg.trunk = kind;
    cfg.seed = 51;
    MicroModel original{cfg};
    original.set_latency_normalization(2.5, 0.7);
    const std::string path = ::testing::TempDir() + "/esim_infer_" +
                             ml::trunk_kind_name(kind) + ".bin";
    original.save(path);

    MicroModel loaded = MicroModel::load_inference(path);
    EXPECT_FALSE(loaded.trainable());
    EXPECT_EQ(loaded.config().hidden, cfg.hidden);
    EXPECT_EQ(loaded.config().layers, cfg.layers);
    EXPECT_EQ(loaded.config().trunk, kind);
    EXPECT_THROW(loaded.parameters(), std::logic_error);
    EXPECT_THROW(loaded.trunk(), std::logic_error);
    EXPECT_THROW(loaded.drop_head(), std::logic_error);
    PacketFeatures probe;
    EXPECT_THROW(loaded.predict_reference(probe), std::logic_error);
    loaded.reset_state();

    // Streaming predictions match the original's session to the bit —
    // including the normalization constants carried through the file.
    original.reset_state();
    sim::Rng rng{52};
    for (int i = 0; i < 40; ++i) {
      const PacketFeatures f = random_features(rng);
      const auto a = original.predict(f);
      const auto b = loaded.predict(f);
      ASSERT_EQ(a.drop_probability, b.drop_probability) << i;
      ASSERT_EQ(a.latency_seconds, b.latency_seconds) << i;
    }

    // Copies of an inference-only model keep working (weight offsets
    // rebase onto the copied buffer) and start from fresh state.
    MicroModel copy{loaded};
    loaded.reset_state();
    sim::Rng rng2{53};
    for (int i = 0; i < 10; ++i) {
      const PacketFeatures f = random_features(rng2);
      const auto a = loaded.predict(f);
      const auto b = copy.predict(f);
      ASSERT_EQ(a.drop_probability, b.drop_probability) << i;
      ASSERT_EQ(a.latency_seconds, b.latency_seconds) << i;
    }

    // The reloaded hot path is allocation-free too.
    sim::Rng rng3{54};
    const PacketFeatures f = random_features(rng3);
    (void)loaded.predict(f);
    AllocationCounter counter;
    for (int i = 0; i < 50; ++i) (void)loaded.predict(f);
    EXPECT_EQ(counter.count(), 0u);
    std::remove(path.c_str());
  }
}

TEST(InferenceSession, ErrorPaths) {
  MicroModel::Config cfg;
  cfg.hidden = 8;
  MicroModel m{cfg};
  // Wrong feature width.
  const std::vector<double> narrow(PacketFeatures::kDim - 1, 0.0);
  EXPECT_THROW(
      (void)m.predict(std::span<const double>{narrow.data(), narrow.size()}),
      std::invalid_argument);
  // Zero-dimension arch.
  EXPECT_THROW(ml::InferenceSession{ml::InferenceSession::Arch{}},
               std::invalid_argument);
  // weight_views head-name count must match the compiled heads.
  sim::Rng rng{61};
  const auto trunk = ml::make_sequence_model(ml::TrunkKind::Lstm, 4, 4, 1,
                                             rng);
  auto session = trunk->make_inference_session();
  EXPECT_THROW((void)session->weight_views("", {"spurious"}),
               std::invalid_argument);
}

// predict_batch (sequence mode) must replay one stream bit-identically:
// chunking an arrival-ordered feature stream into batches of any size —
// including chunks that leave tail rows in the packed kernels — produces
// exactly the predictions and final recurrent state of per-packet
// predict() calls.
TEST(InferenceSession, PredictBatchBitIdenticalToSequential) {
  for (const ml::TrunkKind kind : {ml::TrunkKind::Lstm, ml::TrunkKind::Gru}) {
    // hidden = 9 leaves 4H = 36 and 3H = 27 with scalar tail rows.
    for (const std::size_t hidden : {9UL, 16UL, 32UL}) {
      MicroModel::Config cfg;
      cfg.hidden = hidden;
      cfg.layers = 2;
      cfg.trunk = kind;
      cfg.seed = 13 * hidden;
      MicroModel sequential{cfg};
      MicroModel batched{cfg};  // same seed => identical weights
      batched.reserve_batch(17);

      sim::Rng rng{cfg.seed + 1};
      constexpr std::size_t kDim = PacketFeatures::kDim;
      std::vector<double> stream;
      for (int i = 0; i < 29 * static_cast<int>(kDim); ++i) {
        stream.push_back(rng.uniform() * 2.0 - 1.0);
      }

      std::vector<MicroModel::Prediction> expect;
      for (std::size_t t = 0; t * kDim < stream.size(); ++t) {
        expect.push_back(sequential.predict(
            std::span<const double>{stream.data() + t * kDim, kDim}));
      }

      // Uneven chunk sizes walk the same stream through predict_batch.
      std::vector<MicroModel::Prediction> got(expect.size());
      std::size_t t = 0;
      for (const std::size_t chunk : {1UL, 3UL, 8UL, 17UL}) {
        const std::size_t n = std::min(chunk, expect.size() - t);
        batched.predict_batch(
            std::span<const double>{stream.data() + t * kDim, n * kDim},
            std::span<MicroModel::Prediction>{got.data() + t, n});
        t += n;
      }
      while (t < expect.size()) {
        batched.predict_batch(
            std::span<const double>{stream.data() + t * kDim, kDim},
            std::span<MicroModel::Prediction>{got.data() + t, 1});
        ++t;
      }
      for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(got[i].drop_probability, expect[i].drop_probability)
            << ml::trunk_kind_name(kind) << " hidden=" << hidden << " t=" << i;
        ASSERT_EQ(got[i].latency_seconds, expect[i].latency_seconds)
            << ml::trunk_kind_name(kind) << " hidden=" << hidden << " t=" << i;
      }
    }
  }
}

// The zero-per-call-allocation contract extends to batches: once
// reserve_batch() covers the batch size, predict_batch allocates nothing
// for any N in 1..64.
TEST(InferenceSession, PredictBatchIsAllocationFree) {
  MicroModel::Config cfg;
  cfg.hidden = 32;
  cfg.layers = 2;
  MicroModel m{cfg};
  m.reserve_batch(64);
  constexpr std::size_t kDim = PacketFeatures::kDim;
  sim::Rng rng{91};
  std::vector<double> features(64 * kDim);
  for (auto& v : features) v = rng.uniform() * 2.0 - 1.0;
  std::vector<MicroModel::Prediction> out(64);
  m.predict_batch(std::span<const double>{features.data(), kDim},
                  std::span<MicroModel::Prediction>{out.data(), 1});  // warm up
  double sink = 0.0;
  AllocationCounter counter;
  for (std::size_t n = 1; n <= 64; ++n) {
    m.predict_batch(std::span<const double>{features.data(), n * kDim},
                    std::span<MicroModel::Prediction>{out.data(), n});
    sink += out[n - 1].latency_seconds;
  }
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_NE(sink, 0.0);
}

// The stale-session safety net: optimizer steps constructed against the
// Module bump its weight version, and every predict entry point of a
// session compiled before the step refuses to serve the pre-training
// snapshot. recompile() re-snapshots and clears the trip.
TEST(InferenceSession, StaleSessionThrowsAfterOptimizerStep) {
  MicroModel::Config cfg;
  cfg.hidden = 8;
  MicroModel m{cfg};
  m.reserve_batch(4);
  PacketFeatures probe;
  probe.v[0] = 0.3;
  (void)m.predict(probe);  // fresh: serves fine

  ml::SgdMomentum::Config ocfg;
  ocfg.learning_rate = 0.01;
  ml::SgdMomentum opt{m, ocfg};
  opt.step();  // bumps the weight version; session snapshot is now stale

  EXPECT_THROW((void)m.predict(probe), std::logic_error);
  std::vector<double> features(4 * PacketFeatures::kDim, 0.1);
  std::vector<MicroModel::Prediction> out(4);
  EXPECT_THROW((void)m.predict_batch(features,
                                     std::span<MicroModel::Prediction>{out}),
               std::logic_error);

  m.recompile();
  (void)m.predict(probe);  // fresh again
  opt.step();
  EXPECT_THROW((void)m.predict(probe), std::logic_error);

  // The plain parameters() overload keeps legacy behavior: no module to
  // version-tag, so sessions cannot detect those writes (recompile() is
  // the caller's contract, as before).
  m.recompile();
  ml::SgdMomentum legacy{m.parameters(), ocfg};
  legacy.step();
  (void)m.predict(probe);
}

// The hybrid integration must not change under the refactor: routing all
// per-packet inference through the fused session produces exactly the
// run the naive reference path produces (which is the pre-refactor
// behavior), event for event.
TEST(InferenceSession, HybridRunBitIdenticalSessionVsReference) {
  core::ExperimentConfig cfg;
  cfg.net.spec.clusters = 3;
  cfg.net.spec.tors_per_cluster = 2;
  cfg.net.spec.aggs_per_cluster = 2;
  cfg.net.spec.hosts_per_tor = 2;
  cfg.net.spec.cores = 2;
  cfg.load = 0.3;
  cfg.duration = sim::SimTime::from_ms(5);
  cfg.model.hidden = 8;
  cfg.model.layers = 2;

  core::TrainedModels models;
  models.ingress = std::make_unique<MicroModel>(cfg.model);
  models.egress = std::make_unique<MicroModel>(cfg.model);

  const auto fused =
      core::run_hybrid_simulation(cfg, cfg.net.spec, models);
  cfg.approx.reference_inference = true;
  const auto naive =
      core::run_hybrid_simulation(cfg, cfg.net.spec, models);

  // The run must exercise the models, or the equalities below are vacuous.
  EXPECT_GT(fused.approx_stats.egress_packets +
                fused.approx_stats.ingress_packets +
                fused.approx_stats.predicted_drops,
            0u);
  EXPECT_EQ(fused.events_executed, naive.events_executed);
  EXPECT_EQ(fused.events_scheduled, naive.events_scheduled);
  EXPECT_EQ(fused.flows_launched, naive.flows_launched);
  EXPECT_EQ(fused.flows_completed, naive.flows_completed);
  EXPECT_EQ(fused.approx_stats.predicted_drops,
            naive.approx_stats.predicted_drops);
  EXPECT_EQ(fused.approx_stats.egress_packets,
            naive.approx_stats.egress_packets);
  EXPECT_EQ(fused.mean_fct_seconds, naive.mean_fct_seconds);
  ASSERT_EQ(fused.rtt_cdf.size(), naive.rtt_cdf.size());
  if (!fused.rtt_cdf.empty()) {
    for (const double q : {0.1, 0.5, 0.9, 0.99}) {
      EXPECT_EQ(fused.rtt_cdf.quantile(q), naive.rtt_cdf.quantile(q)) << q;
    }
  }
}

}  // namespace
}  // namespace esim
