#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/random.h"
#include "stats/cdf.h"
#include "stats/collectors.h"
#include "stats/distance.h"
#include "stats/summary.h"

namespace esim::stats {
namespace {

using esim::sim::Rng;
using esim::sim::SimTime;

TEST(Summary, EmptyState) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(Summary, ResetClears) {
  Summary s;
  s.add(5.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e{0.5};
  EXPECT_FALSE(e.valid());
  e.add(10.0);
  EXPECT_TRUE(e.valid());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, Smooths) {
  Ewma e{0.5};
  e.add(10.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.5);
}

TEST(Ewma, RejectsBadAlpha) {
  EXPECT_THROW(Ewma{0.0}, std::invalid_argument);
  EXPECT_THROW(Ewma{1.5}, std::invalid_argument);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e{0.2};
  for (int i = 0; i < 200; ++i) e.add(7.0);
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(EmpiricalCdf, QuantilesOfKnownData) {
  EmpiricalCdf c;
  for (int i = 1; i <= 100; ++i) c.add(static_cast<double>(i));
  EXPECT_EQ(c.size(), 100u);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 51.0);
  EXPECT_DOUBLE_EQ(c.min(), 1.0);
  EXPECT_DOUBLE_EQ(c.max(), 100.0);
}

// Regression: add/add_all used to unconditionally mark the sample set
// unsorted — add_all({}) on a sorted million-sample set forced a needless
// O(n log n) re-sort on the next quantile. Order-preserving appends must
// keep the sorted hint, and the hint must never produce wrong quantiles.
TEST(EmpiricalCdf, AppendsPreserveSortedness) {
  EmpiricalCdf c;
  for (int i = 0; i < 1000; ++i) c.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 500.0);  // sorts (already in order)
  EXPECT_TRUE(c.sorted_hint());

  c.add_all({});  // nothing appended: must not invalidate
  EXPECT_TRUE(c.sorted_hint());

  c.add(1000.0);  // appended in order: still sorted
  c.add_all({1001.0, 1002.0});
  EXPECT_TRUE(c.sorted_hint());
  EXPECT_DOUBLE_EQ(c.max(), 1002.0);
  EXPECT_TRUE(c.sorted_hint());

  c.add(0.5);  // out of order: must invalidate and re-sort on next query
  EXPECT_FALSE(c.sorted_hint());
  EXPECT_DOUBLE_EQ(c.min(), 0.0);
  EXPECT_DOUBLE_EQ(c.max(), 1002.0);
  EXPECT_TRUE(c.sorted_hint());

  c.add_all({500.25, 1.5});  // unsorted batch: invalidates
  EXPECT_FALSE(c.sorted_hint());
  EXPECT_EQ(c.size(), 1006u);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 1002.0);
}

TEST(EmpiricalCdf, InterleavedAddAndQuantileStayCorrect) {
  EmpiricalCdf c;
  for (int round = 0; round < 50; ++round) {
    c.add(static_cast<double>(100 - round));  // strictly decreasing
    EXPECT_DOUBLE_EQ(c.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(c.quantile(0.0), static_cast<double>(100 - round));
  }
  EXPECT_EQ(c.size(), 50u);
}

TEST(EmpiricalCdf, AtEvaluatesFraction) {
  EmpiricalCdf c;
  c.add_all({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(c.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(c.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.at(10.0), 1.0);
}

TEST(EmpiricalCdf, EmptyBehaviour) {
  EmpiricalCdf c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.at(1.0), 0.0);
  EXPECT_THROW(c.quantile(0.5), std::logic_error);
  EXPECT_THROW(c.min(), std::logic_error);
  EXPECT_TRUE(c.curve(5).empty());
}

TEST(EmpiricalCdf, SingleSampleDegenerateDistribution) {
  EmpiricalCdf c;
  c.add(3.5);
  EXPECT_EQ(c.size(), 1u);
  // Every quantile of a one-point distribution is that point.
  for (double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(c.quantile(p), 3.5);
  }
  EXPECT_DOUBLE_EQ(c.min(), 3.5);
  EXPECT_DOUBLE_EQ(c.max(), 3.5);
  // The CDF is a unit step at the sample.
  EXPECT_DOUBLE_EQ(c.at(3.5 - 1e-9), 0.0);
  EXPECT_DOUBLE_EQ(c.at(3.5), 1.0);
  // curve() degenerates to n copies of the step's top, not NaNs.
  const auto pts = c.curve(4);
  ASSERT_EQ(pts.size(), 4u);
  for (const auto& [x, f] : pts) {
    EXPECT_DOUBLE_EQ(x, 3.5);
    EXPECT_DOUBLE_EQ(f, 1.0);
  }
}

TEST(EmpiricalCdf, AllEqualSamples) {
  EmpiricalCdf c;
  for (int i = 0; i < 64; ++i) c.add(7.0);
  for (double p : {0.0, 0.5, 1.0}) EXPECT_DOUBLE_EQ(c.quantile(p), 7.0);
  EXPECT_DOUBLE_EQ(c.min(), c.max());
  EXPECT_DOUBLE_EQ(c.at(6.999), 0.0);
  EXPECT_DOUBLE_EQ(c.at(7.0), 1.0);
  EXPECT_TRUE(c.sorted_hint()) << "equal appends must not force a re-sort";
  const auto pts = c.curve(8);
  ASSERT_EQ(pts.size(), 8u);
  for (const auto& [x, f] : pts) {
    EXPECT_DOUBLE_EQ(x, 7.0);
    EXPECT_DOUBLE_EQ(f, 1.0);
  }
}

TEST(EmpiricalCdf, RejectsBadQuantile) {
  EmpiricalCdf c;
  c.add(1.0);
  EXPECT_THROW(c.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(c.quantile(1.1), std::invalid_argument);
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  Rng rng{8};
  EmpiricalCdf c;
  for (int i = 0; i < 500; ++i) c.add(rng.exponential(2.0));
  const auto pts = c.curve(32);
  ASSERT_EQ(pts.size(), 32u);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);
    EXPECT_GE(pts[i].second, pts[i - 1].second);
  }
}

TEST(Distance, IdenticalDistributionsAreZero) {
  EmpiricalCdf a, b;
  for (int i = 0; i < 100; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 0.0);
  EXPECT_DOUBLE_EQ(wasserstein_distance(a, b), 0.0);
}

TEST(Distance, DisjointDistributionsAreMaximal) {
  EmpiricalCdf a, b;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    b.add(i + 1000);
  }
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 1.0);
  EXPECT_NEAR(wasserstein_distance(a, b), 1000.0, 1.0);
}

TEST(Distance, KnownShiftWasserstein) {
  // Shift a distribution by c: W1 distance is exactly c.
  Rng rng{21};
  EmpiricalCdf a, b;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform();
    a.add(x);
    b.add(x + 0.25);
  }
  EXPECT_NEAR(wasserstein_distance(a, b), 0.25, 1e-9);
}

TEST(Distance, KsDetectsHalfOverlap) {
  EmpiricalCdf a, b;
  for (int i = 0; i < 100; ++i) a.add(i);          // 0..99
  for (int i = 50; i < 150; ++i) b.add(i);         // 50..149
  EXPECT_NEAR(ks_distance(a, b), 0.5, 0.02);
}

TEST(Distance, SelfDistanceIsExactlyZero) {
  // Bitwise-exact zero, not just small: the sweep visits identical merged
  // sample points, so no floating-point residue is acceptable. This is
  // what makes "distance == 0" a usable equivalence check elsewhere.
  Rng rng{55};
  EmpiricalCdf a;
  // Heavy-tailed samples: Pareto(scale 1, shape 1.3) by inversion.
  for (int i = 0; i < 1000; ++i) {
    a.add(1.0 / std::pow(rng.uniform(), 1.0 / 1.3));
  }
  EXPECT_EQ(ks_distance(a, a), 0.0);
  EXPECT_EQ(wasserstein_distance(a, a), 0.0);
}

TEST(Distance, SingleSampleDistributions) {
  EmpiricalCdf a, b, same;
  a.add(1.0);
  b.add(4.0);
  same.add(1.0);
  // Two unit steps at different points: maximally KS-separated, and the
  // earth mover carries one unit of mass the full gap.
  EXPECT_DOUBLE_EQ(ks_distance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(wasserstein_distance(a, b), 3.0);
  EXPECT_EQ(ks_distance(a, same), 0.0);
  EXPECT_EQ(wasserstein_distance(a, same), 0.0);
}

TEST(Distance, AllEqualVersusSpread) {
  EmpiricalCdf point, spread;
  for (int i = 0; i < 10; ++i) point.add(5.0);
  for (int i = 0; i < 10; ++i) spread.add(static_cast<double>(i));  // 0..9
  // At x just below 5: F_point = 0, F_spread = 0.5. At x = 5 both jump.
  EXPECT_DOUBLE_EQ(ks_distance(point, spread), 0.5);
  // Mass moves |i - 5| / 10 each: (5+4+3+2+1+0+1+2+3+4) / 10.
  EXPECT_NEAR(wasserstein_distance(point, spread), 2.5, 1e-12);
  EXPECT_EQ(ks_distance(point, point), 0.0);
}

TEST(Distance, ThrowsOnEmpty) {
  EmpiricalCdf a, b;
  a.add(1.0);
  EXPECT_THROW(ks_distance(a, b), std::logic_error);
  EXPECT_THROW(wasserstein_distance(b, a), std::logic_error);
}

TEST(Distance, SymmetricInArguments) {
  Rng rng{33};
  EmpiricalCdf a, b;
  for (int i = 0; i < 300; ++i) {
    a.add(rng.exponential(1.0));
    b.add(rng.exponential(1.4));
  }
  EXPECT_DOUBLE_EQ(ks_distance(a, b), ks_distance(b, a));
  EXPECT_NEAR(wasserstein_distance(a, b), wasserstein_distance(b, a), 1e-12);
}

TEST(LatencyCollector, RecordsBoth) {
  LatencyCollector c;
  c.record(SimTime::from_ms(1));
  c.record(SimTime::from_ms(3));
  EXPECT_EQ(c.summary().count(), 2u);
  EXPECT_NEAR(c.summary().mean(), 0.002, 1e-12);
  EXPECT_EQ(c.cdf().size(), 2u);
}

TEST(FlowCollector, LifecycleAndFct) {
  FlowCollector fc;
  fc.on_start(1, 10, 20, 1'000'000, SimTime::from_ms(5));
  fc.on_start(2, 11, 21, 500, SimTime::from_ms(6));
  fc.on_complete(1, SimTime::from_ms(15));
  EXPECT_EQ(fc.completed_count(), 1u);
  ASSERT_EQ(fc.records().size(), 2u);
  EXPECT_TRUE(fc.records()[0].completed);
  EXPECT_FALSE(fc.records()[1].completed);
  EXPECT_EQ(fc.records()[0].fct(), SimTime::from_ms(10));
  EXPECT_EQ(fc.fct_cdf().size(), 1u);
  // goodput: 1MB in 10ms = 800 Mbit/s
  EXPECT_NEAR(fc.mean_goodput_bps(), 8e8, 1e3);
}

TEST(FlowCollector, IgnoresUnknownAndDoubleComplete) {
  FlowCollector fc;
  fc.on_complete(99, SimTime::from_ms(1));  // never started
  EXPECT_EQ(fc.completed_count(), 0u);
  fc.on_start(1, 0, 1, 100, SimTime::from_ms(1));
  fc.on_complete(1, SimTime::from_ms(2));
  fc.on_complete(1, SimTime::from_ms(3));
  EXPECT_EQ(fc.completed_count(), 1u);
  EXPECT_EQ(fc.records()[0].end, SimTime::from_ms(2));
}

// Ids index relative to the first one started, so a generator whose ids
// begin at 2^40 costs two index entries, not 2^40.
TEST(FlowCollector, IndexesIdsFromTheFirstStarted) {
  constexpr std::uint64_t kFirst = 1ULL << 40;
  FlowCollector fc;
  fc.on_start(kFirst, 0, 1, 1'000, SimTime::from_ms(1));
  fc.on_start(kFirst + 1, 1, 0, 2'000, SimTime::from_ms(2));
  fc.on_complete(kFirst + 1, SimTime::from_ms(4));
  fc.on_complete(kFirst, SimTime::from_ms(6));
  fc.on_complete(kFirst - 1, SimTime::from_ms(7));  // never started
  EXPECT_EQ(fc.completed_count(), 2u);
  ASSERT_EQ(fc.records().size(), 2u);
  EXPECT_EQ(fc.records()[0].flow_id, kFirst);
  EXPECT_EQ(fc.records()[0].fct(), SimTime::from_ms(5));
  EXPECT_EQ(fc.records()[1].fct(), SimTime::from_ms(2));
  const EmpiricalCdf cdf = fc.fct_cdf();
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf.min(), 0.002);
  EXPECT_DOUBLE_EQ(cdf.max(), 0.005);
  EXPECT_DOUBLE_EQ(cdf.at(0.003), 0.5);

  try {
    fc.on_start(kFirst - 1, 0, 1, 100, SimTime::from_ms(8));
    ADD_FAILURE() << "an id below the first one was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(std::to_string(kFirst - 1)),
              std::string::npos)
        << e.what();
  }
  // 2^40 entries past the first id: far beyond the 2^32 index bound.
  EXPECT_THROW(fc.on_start(2 * kFirst, 0, 1, 100, SimTime::from_ms(8)),
               std::invalid_argument);
  EXPECT_EQ(fc.records().size(), 2u);
}

TEST(PacketCounter, DropRate) {
  PacketCounter c;
  EXPECT_EQ(c.drop_rate(), 0.0);
  c.sent = 10;
  c.dropped = 3;
  EXPECT_DOUBLE_EQ(c.drop_rate(), 0.3);
}

}  // namespace
}  // namespace esim::stats
