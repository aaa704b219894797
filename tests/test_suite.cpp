// Suite tests: every one of the 23 programs compiles through the pipeline,
// executes correctly on a single device AND under mixed partitionings
// (verifying both kernel semantics and the multi-device distribution), and
// carries a sane size ladder.

#include <gtest/gtest.h>

#include "runtime/scheduler.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace tp::suite {
namespace {

TEST(Suite, HasExactly23Programs) {
  EXPECT_EQ(allBenchmarks().size(), 23u);
}

TEST(Suite, NamesAreUniqueAndFamiliesKnown) {
  std::set<std::string> names;
  std::map<std::string, int> families;
  for (const auto& b : allBenchmarks()) {
    EXPECT_TRUE(names.insert(b.name).second) << "duplicate " << b.name;
    ++families[b.family];
  }
  EXPECT_EQ(families["vendor"], 9);
  EXPECT_EQ(families["shoc"], 6);
  EXPECT_EQ(families["rodinia"], 6);
  EXPECT_EQ(families["polybench"], 2);
}

TEST(Suite, LookupByName) {
  EXPECT_EQ(benchmarkByName("matmul").name, "matmul");
  EXPECT_THROW(benchmarkByName("nope"), Error);
}

TEST(Suite, SizeLaddersAreIncreasing) {
  for (const auto& b : allBenchmarks()) {
    ASSERT_GE(b.sizes.size(), 4u) << b.name;
    for (std::size_t i = 1; i < b.sizes.size(); ++i) {
      EXPECT_LT(b.sizes[i - 1], b.sizes[i]) << b.name;
    }
  }
}

TEST(Suite, StaticFeaturesDiffer) {
  // The learner can only distinguish programs if their static features do.
  std::set<std::vector<double>> unique;
  for (const auto& b : allBenchmarks()) {
    unique.insert(features::staticFeatureVector(b.compiled.features()));
  }
  EXPECT_GE(unique.size(), 20u);  // allow a couple of near-twins
}

// ---------------------------------------------------------------------------
// Correctness under partitioning: run every program at its smallest ladder
// size under single-device and mixed partitionings; verify results.
// This doubles as validation of the access classification (BufferView
// bounds-checks abort the test if a split is wrong).
// ---------------------------------------------------------------------------

struct SuiteCase {
  std::string benchmark;
  std::vector<int> units;
};

class SuiteExecution : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(SuiteExecution, ComputesCorrectResults) {
  const auto& param = GetParam();
  const Benchmark& bench = benchmarkByName(param.benchmark);
  BenchmarkInstance inst = bench.make(bench.sizes.front());

  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::Compute);
  runtime::Scheduler scheduler(ctx);
  const runtime::Partitioning p{param.units, 10};
  const auto result = scheduler.execute(inst.task, p);
  EXPECT_GT(result.makespan, 0.0);

  std::string error;
  EXPECT_TRUE(inst.verify(&error)) << param.benchmark << " under "
                                   << p.toString() << ": " << error;
}

std::vector<SuiteCase> allCases() {
  const std::vector<std::vector<int>> partitionings = {
      {10, 0, 0},  // CPU only
      {0, 10, 0},  // GPU only
      {5, 5, 0},   // CPU + one GPU
      {4, 3, 3},   // everything
  };
  std::vector<SuiteCase> cases;
  for (const auto& b : allBenchmarks()) {
    for (const auto& units : partitionings) {
      cases.push_back({b.name, units});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All23TimesFourPartitionings, SuiteExecution,
    ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<SuiteCase>& info) {
      std::string name = info.param.benchmark;
      for (const int u : info.param.units) {
        name.append("_").append(std::to_string(u));
      }
      return name;
    });

// Determinism: building the same instance twice yields identical inputs.
TEST(Suite, InstanceDataIsDeterministic) {
  const Benchmark& bench = benchmarkByName("vecadd");
  auto a = bench.make(bench.sizes.front());
  auto b = bench.make(bench.sizes.front());
  const auto& bufA = std::get<runtime::BufferArg>(a.task.args[0]).buffer;
  const auto& bufB = std::get<runtime::BufferArg>(b.task.args[0]).buffer;
  ASSERT_EQ(bufA->size(), bufB->size());
  EXPECT_EQ(bufA->toVector<float>(), bufB->toVector<float>());
}

// The runtime features must be problem-size sensitive for every program.
TEST(Suite, RuntimeFeaturesChangeWithProblemSize) {
  for (const auto& b : allBenchmarks()) {
    auto small = b.make(b.sizes.front());
    auto large = b.make(b.sizes[1]);
    const auto fs = features::runtimeFeatureVector(small.task.features,
                                                   small.task.launchInfo());
    const auto fl = features::runtimeFeatureVector(large.task.features,
                                                   large.task.launchInfo());
    EXPECT_NE(fs, fl) << b.name;
  }
}

}  // namespace
}  // namespace tp::suite
