#include "sim/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace esim::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r{11};
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Chi-square-ish sanity: each bucket within 10% of expectation.
  for (int c : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(Rng, UniformIntOneAlwaysZero) {
  Rng r{3};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(1), 0u);
}

TEST(Rng, ExponentialMean) {
  Rng r{13};
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, ExponentialNonNegative) {
  Rng r{13};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng r{17};
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng r{19};
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng r{29};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// Golden streams: the exact first draws for a documented seed. These pin
// the generator's cross-platform determinism contract (DESIGN: identical
// seeds produce identical simulations) — any change to seeding, xoshiro
// stepping, or the integer reductions is a breaking change and must show
// up here, not as silently shifted simulation results. Integer draws are
// compared exactly; transformed draws go through libm (log/sqrt/cos), so
// those use a tolerance far below any physical relevance.
TEST(Rng, GoldenRawDraws) {
  Rng r{12345};
  const std::uint64_t expected[] = {
      10201931350592234856ull, 3780764549115216544ull,
      1570246627180645737ull,  3237956550421933520ull,
      4899705286669081817ull,  13385132719381623431ull,
      4322154809380817970ull,  14774873379570401602ull,
  };
  for (std::uint64_t want : expected) EXPECT_EQ(r.next_u64(), want);

  Rng def{};  // the documented default-seed stream
  EXPECT_EQ(def.next_u64(), 6409272458699751175ull);
  EXPECT_EQ(def.next_u64(), 6888991682673849350ull);
}

TEST(Rng, GoldenUniformIntDraws) {
  Rng r{12345};
  const std::uint64_t expected[] = {856u, 544u, 737u, 520u,
                                    817u, 431u, 970u, 602u};
  for (std::uint64_t want : expected) EXPECT_EQ(r.uniform_int(1000), want);
}

TEST(Rng, GoldenDistributionDraws) {
  Rng u{12345};
  const double uniform[] = {0.5530478066930038, 0.20495565689034478,
                            0.085123240226364527, 0.17552997631905642};
  for (double want : uniform) EXPECT_DOUBLE_EQ(u.uniform(), want);

  Rng e{12345};
  const double exp2[] = {1.1846216629605255, 3.1699232621872464,
                         4.9273103750883687, 3.4798908908499628};
  for (double want : exp2) EXPECT_NEAR(e.exponential(2.0), want, 1e-12);

  Rng n{12345};
  const double normal[] = {0.30394602411211569, 1.0451021372990119,
                           1.0011559071381724, 1.9811605751908934};
  for (double want : normal) EXPECT_NEAR(n.normal(), want, 1e-12);

  Rng b{12345};
  const bool bern[] = {false, true, true, true, true, false, true, false};
  for (bool want : bern) EXPECT_EQ(b.bernoulli(0.5), want);
}

// Stream non-aliasing: every drawing component derives its stream from
// (seed, tag, index). If two consumers ever shared a stream, their
// "independent" draws would be perfectly correlated — a silent statistics
// bug. Fingerprint each stream by its first draws and require all streams,
// and the plain Rng{seed} streams beside them, pairwise distinct.
TEST(Rng, DerivedStreamsDoNotAlias) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> prints;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const StreamTag tag : {StreamTag::arrivals, StreamTag::drops}) {
      for (std::uint64_t index = 0; index < 16; ++index) {
        Rng stream = derive_stream(seed, tag, index);
        prints.emplace_back(stream.next_u64(), stream.next_u64());
      }
    }
    Rng root{seed};
    prints.emplace_back(root.next_u64(), root.next_u64());
  }
  std::sort(prints.begin(), prints.end());
  EXPECT_EQ(std::adjacent_find(prints.begin(), prints.end()), prints.end())
      << "two RNG streams produced identical opening draws";
}

TEST(Rng, DerivedStreamDeterministic) {
  Rng a = derive_stream(99, StreamTag::drops, 3);
  Rng b = derive_stream(99, StreamTag::drops, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// The mixing is part of the seeding contract: every run that draws
// arrivals or sampled drops depends on these values.
TEST(Rng, GoldenDerivedStreamDraws) {
  Rng arrivals = derive_stream(1, StreamTag::arrivals, 0);
  Rng drops = derive_stream(1, StreamTag::drops, 1);
  EXPECT_EQ(arrivals.next_u64(), 6923812125190581470ull);
  EXPECT_EQ(drops.next_u64(), 9933475551991607050ull);
}

}  // namespace
}  // namespace esim::sim
