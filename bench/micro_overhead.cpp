// Runtime-overhead microbenchmarks (google-benchmark): what the deployment
// phase costs per kernel launch — feature evaluation, model prediction,
// partition planning — and what the offline phases cost (oracle sweep,
// model training, kernel compilation). The paper's runtime decision must be
// negligible against kernel execution times (0.1ms–1s).

#include <benchmark/benchmark.h>

#include <memory>

#include "common/log.hpp"
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
