#include <gtest/gtest.h>

#include <set>

#include "net/clos.h"
#include "sim/random.h"
#include "workload/flow_size.h"
#include "workload/traffic_matrix.h"

namespace esim::workload {
namespace {

using esim::sim::Rng;

TEST(FixedFlowSize, AlwaysSame) {
  Rng rng{1};
  FixedFlowSize d{1234};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), 1234u);
  EXPECT_DOUBLE_EQ(d.mean(), 1234.0);
  EXPECT_THROW(FixedFlowSize{0}, std::invalid_argument);
}

TEST(EmpiricalFlowSize, ValidatesKnots) {
  using Knots = std::vector<std::pair<std::uint64_t, double>>;
  EXPECT_THROW((EmpiricalFlowSize{Knots{{100, 1.0}}}), std::invalid_argument);
  EXPECT_THROW((EmpiricalFlowSize{Knots{{100, 0.5}, {50, 1.0}}}),
               std::invalid_argument);
  EXPECT_THROW((EmpiricalFlowSize{Knots{{100, 0.5}, {200, 0.4}}}),
               std::invalid_argument);
  EXPECT_THROW((EmpiricalFlowSize{Knots{{100, 0.5}, {200, 0.9}}}),
               std::invalid_argument);
  EmpiricalFlowSize ok{Knots{{100, 0.5}, {200, 1.0}}};
  EXPECT_GT(ok.mean(), 100.0);
  EXPECT_LT(ok.mean(), 200.0);
}

TEST(EmpiricalFlowSize, SamplesMatchCdf) {
  Rng rng{4};
  auto d = web_search_distribution();
  const int n = 100000;
  int small = 0, large = 0;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    const auto s = d->sample(rng);
    sum += static_cast<double>(s);
    if (s <= 13'000) ++small;
    if (s > 3'300'000) ++large;
  }
  // CDF says 20% of flows are <= 13KB and 10% are > 3.3MB.
  EXPECT_NEAR(static_cast<double>(small) / n, 0.20, 0.02);
  EXPECT_NEAR(static_cast<double>(large) / n, 0.10, 0.01);
  // Empirical mean should approximate the analytic mean.
  EXPECT_NEAR(sum / n, d->mean(), d->mean() * 0.05);
}

TEST(EmpiricalFlowSize, MiniDistributionIsSmaller) {
  auto full = web_search_distribution();
  auto mini = mini_web_distribution();
  EXPECT_LT(mini->mean() * 10, full->mean());
}

TEST(UniformTraffic, DistinctPairsCoverAll) {
  Rng rng{5};
  UniformTraffic m{8};
  std::set<std::pair<net::HostId, net::HostId>> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto [s, d] = m.sample(rng);
    EXPECT_NE(s, d);
    EXPECT_LT(s, 8u);
    EXPECT_LT(d, 8u);
    seen.insert({s, d});
  }
  EXPECT_EQ(seen.size(), 8u * 7u);  // all ordered pairs hit
  EXPECT_THROW(UniformTraffic{1}, std::invalid_argument);
}

net::ClosSpec small_spec() {
  net::ClosSpec s;
  s.clusters = 4;
  s.tors_per_cluster = 2;
  s.aggs_per_cluster = 2;
  s.hosts_per_tor = 4;
  s.cores = 2;
  return s;
}

TEST(ClusterMixTraffic, RespectsIntraFraction) {
  Rng rng{6};
  const auto spec = small_spec();
  ClusterMixTraffic m{spec, 0.7};
  int intra = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto [s, d] = m.sample(rng);
    EXPECT_NE(s, d);
    if (spec.cluster_of_host(s) == spec.cluster_of_host(d)) ++intra;
  }
  EXPECT_NEAR(static_cast<double>(intra) / n, 0.7, 0.02);
}

TEST(ClusterMixTraffic, PureInterNeverIntra) {
  Rng rng{7};
  ClusterMixTraffic m{small_spec(), 0.0};
  const auto spec = small_spec();
  for (int i = 0; i < 2000; ++i) {
    const auto [s, d] = m.sample(rng);
    EXPECT_NE(spec.cluster_of_host(s), spec.cluster_of_host(d));
  }
}

TEST(ClusterMixTraffic, Validation) {
  net::ClosSpec one;
  one.clusters = 1;
  one.cores = 0;
  EXPECT_THROW((ClusterMixTraffic{one, 0.5}), std::invalid_argument);
  EXPECT_THROW((ClusterMixTraffic{small_spec(), 1.5}),
               std::invalid_argument);
}

}  // namespace
}  // namespace esim::workload
