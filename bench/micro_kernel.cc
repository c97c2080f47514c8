// Microbenchmarks of the kernels underneath every experiment: event queue
// operations (bulk schedule/pop and timer churn), RNG, ECMP hashing,
// link+switch forwarding, LSTM inference, and feature extraction.
// google-benchmark based: --benchmark_repetitions=N reports each kernel's
// median, mean, stddev and cv over N runs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "approx/features.h"
#include "approx/micro_model.h"
#include "core/network.h"
#include "net/ecmp.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace {

using namespace esim;  // NOLINT

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng{1};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(sim::SimTime::from_ns(
                     static_cast<std::int64_t>(rng.uniform_int(1'000'000))),
                 [] {});
    }
    while (auto e = q.pop()) benchmark::DoNotOptimize(e->time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(65536);

// TCP retransmission-timer churn: every segment arms a timer that its ACK
// cancels before it fires. Each iteration arms 1024 timers 10-15 us
// ahead, cancels 7 of every 8 and pops the rest.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  constexpr std::size_t kTimers = 1024;
  sim::EventQueue q;
  sim::Rng rng{1};
  std::vector<sim::EventHandle> timers;
  timers.reserve(kTimers);
  std::int64_t now = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers.push_back(q.schedule(
          sim::SimTime::from_ns(
              now + 10'000 + static_cast<std::int64_t>(rng.uniform_int(5'000))),
          [] {}));
    }
    for (std::size_t i = 0; i < kTimers; ++i) {
      if (i % 8 != 7) q.cancel(timers[i]);
    }
    timers.clear();
    while (auto e = q.pop()) now = e->time.ns();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTimers));
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10'000) sim.schedule_in(sim::SimTime::from_ns(10), tick);
    };
    sim.schedule_in(sim::SimTime::from_ns(1), tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng{2};
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_EcmpHash(benchmark::State& state) {
  net::FlowKey key{12, 345, 10'000, 80};
  std::uint32_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ecmp_index(key, ++salt, 8));
  }
}
BENCHMARK(BM_EcmpHash);

void BM_PathReplay(benchmark::State& state) {
  net::ClosSpec spec;
  spec.clusters = 16;
  spec.tors_per_cluster = 2;
  spec.aggs_per_cluster = 2;
  spec.hosts_per_tor = 4;
  spec.cores = 4;
  net::FlowKey key{0, 100, 10'000, 80};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::compute_path(spec, key));
  }
}
BENCHMARK(BM_PathReplay);

void BM_SwitchForwardThroughLink(benchmark::State& state) {
  sim::Simulator sim;
  core::NetworkConfig cfg;
  cfg.spec.clusters = 2;
  cfg.spec.cores = 2;
  auto net = core::build_full_network(sim, cfg);
  net::Packet pkt;
  pkt.flow = net::FlowKey{0, 12, 10'000, 80};
  pkt.payload = 1460;
  std::uint64_t id = 0;
  for (auto _ : state) {
    pkt.id = ++id;
    net.switches[0]->handle_packet(pkt);
    sim.run();  // drain the whole hop chain
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwitchForwardThroughLink);

void BM_LstmInferenceStep(benchmark::State& state) {
  approx::MicroModel::Config cfg;
  cfg.hidden = static_cast<std::size_t>(state.range(0));
  cfg.layers = 2;
  approx::MicroModel model{cfg};
  approx::PacketFeatures f;
  f.v[0] = 0.3;
  f.v[7] = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LstmInferenceStep)->Arg(16)->Arg(32)->Arg(128);

// The naive Tensor step() path, kept as the baseline the session is
// measured against (EXPERIMENTS.md quotes both at hidden 16, 32 and 128).
void BM_LstmInferenceReference(benchmark::State& state) {
  approx::MicroModel::Config cfg;
  cfg.hidden = static_cast<std::size_t>(state.range(0));
  cfg.layers = 2;
  approx::MicroModel model{cfg};
  approx::PacketFeatures f;
  f.v[0] = 0.3;
  f.v[7] = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_reference(f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LstmInferenceReference)->Arg(16)->Arg(32)->Arg(128);

void BM_FeatureExtraction(benchmark::State& state) {
  net::ClosSpec spec;
  spec.clusters = 4;
  spec.tors_per_cluster = 2;
  spec.aggs_per_cluster = 2;
  spec.hosts_per_tor = 4;
  spec.cores = 2;
  approx::FeatureExtractor fx{spec, 1, approx::Direction::Egress};
  net::Packet pkt;
  pkt.flow = net::FlowKey{8, 0, 10'000, 80};
  pkt.payload = 1460;
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.extract(pkt, sim::SimTime::from_ns(t += 700),
                   approx::MacroState::MinimalCongestion));
  }
}
BENCHMARK(BM_FeatureExtraction);

}  // namespace

BENCHMARK_MAIN();
