// Runtime-overhead microbenchmarks (google-benchmark): what the deployment
// phase costs per kernel launch — feature evaluation, model prediction,
// partition planning — and what the offline phases cost (oracle sweep,
// model training, kernel compilation). The paper's runtime decision must be
// negligible against kernel execution times (0.1ms–1s).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/striped.hpp"
#include "features/runtime_features.hpp"
#include "ml/classifier.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/strategy.hpp"
#include "serve/cache.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace {

using namespace tp;

runtime::FeatureDatabase smallDb(const runtime::PartitioningSpace& space) {
  auto db = runtime::FeatureDatabase::withDefaultSchema(space.size());
  for (const auto& name : {"vecadd", "matmul", "nbody", "spmv"}) {
    const auto& b = suite::benchmarkByName(name);
    for (std::size_t s = 0; s < 3; ++s) {
      auto inst = b.make(b.sizes[s]);
      db.add(runtime::measureLaunch(inst.task, sim::makeMc2(), space,
                                    "n=" + std::to_string(b.sizes[s])));
    }
  }
  return db;
}

struct Fixture {
  runtime::PartitioningSpace space{3, 10};
  suite::BenchmarkInstance instance;
  std::unique_ptr<ml::Classifier> model;

  Fixture() {
    common::setLogLevel(common::LogLevel::Warn);
    const auto& bench = suite::benchmarkByName("kmeans");
    instance = bench.make(bench.sizes[2]);
    model = runtime::trainDeploymentModel(smallDb(space), "mc2", "forest:64");
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_FeatureVector(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::combinedFeatureVector(
        f.instance.task.features, f.instance.task.launchInfo()));
  }
}
BENCHMARK(BM_FeatureVector);

void BM_ModelPrediction(benchmark::State& state) {
  auto& f = fixture();
  const auto x = features::combinedFeatureVector(f.instance.task.features,
                                                 f.instance.task.launchInfo());
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->predict(x));
  }
}
BENCHMARK(BM_ModelPrediction);

void BM_PartitionPlanning(benchmark::State& state) {
  auto& f = fixture();
  const auto& p = f.space.at(33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runtime::splitGroups(f.instance.task.numGroups(), p));
  }
}
BENCHMARK(BM_PartitionPlanning);

void BM_SimulatedExecution(benchmark::State& state) {
  auto& f = fixture();
  vcl::Context ctx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  runtime::Scheduler scheduler(ctx);
  const auto& p = f.space.at(33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.execute(f.instance.task, p).makespan);
  }
}
BENCHMARK(BM_SimulatedExecution);

void BM_LaunchFingerprint(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::launchFingerprint(1, f.instance.task, /*roundDigits=*/6));
  }
}
BENCHMARK(BM_LaunchFingerprint);

// Launch-signature quantization per component. Arg 0: exact integers
// (NDRange sizes, byte counts — the fast path); arg 1: fractional values
// (transfer scales, float parameters — the general path).
void BM_RoundSignificant(benchmark::State& state) {
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) {
    const double n = static_cast<double>(4096 * (i + 1) + 64 * i);
    values.push_back(state.range(0) == 0 ? n : n / 10.0 + 0.3);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::roundSignificant(values[i], 6));
    i = (i + 1) & 63;
  }
}
BENCHMARK(BM_RoundSignificant)->Arg(0)->Arg(1);

// The per-request admission latch: one admit/gate-check/done round trip.
// Arg 0: a single shared in-flight word (seq_cst add, gate load, seq_cst
// sub, notify on the 1 -> 0 edge); arg 1: common::StripedLatch, where
// each thread writes only its own stripe.
void BM_InFlightLatch(benchmark::State& state) {
  static std::atomic<std::uint64_t> inFlight{0};
  static std::atomic<bool> accepting{true};
  static common::StripedLatch latch;
  if (state.range(0) == 0) {
    for (auto _ : state) {
      inFlight.fetch_add(1, std::memory_order_seq_cst);
      benchmark::DoNotOptimize(accepting.load(std::memory_order_seq_cst));
      if (inFlight.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        inFlight.notify_all();
      }
    }
  } else {
    for (auto _ : state) {
      latch.admit();
      benchmark::DoNotOptimize(accepting.load(std::memory_order_seq_cst));
      latch.done();
    }
  }
}
BENCHMARK(BM_InFlightLatch)->Arg(0)->Arg(1)->Threads(1)->Threads(3);

// What every request that carries a Task by value pays to build and tear
// it down (perfbench's request batches, the serving queue path).
void BM_TaskCopy(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    runtime::Task copy = f.instance.task;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_TaskCopy);

void BM_OracleSearch66(benchmark::State& state) {
  auto& f = fixture();
  const auto machine = sim::makeMc2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runtime::oracleSearch(f.instance.task, machine, f.space));
  }
}
BENCHMARK(BM_OracleSearch66);

void BM_KernelCompilation(benchmark::State& state) {
  const std::string source = suite::benchmarkByName("blackscholes").source();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::CompiledKernel::compile(source));
  }
}
BENCHMARK(BM_KernelCompilation);

void BM_ForestTraining(benchmark::State& state) {
  auto& f = fixture();
  const auto db = smallDb(f.space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runtime::trainDeploymentModel(db, "mc2", "forest:64"));
  }
}
BENCHMARK(BM_ForestTraining);

}  // namespace

BENCHMARK_MAIN();
