// Suite tests: every one of the 23 programs compiles through the pipeline,
// executes correctly on a single device AND under mixed partitionings
// (verifying both kernel semantics and the multi-device distribution), and
// carries a sane size ladder.

#include <gtest/gtest.h>

#include <bit>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"
#include "suite/suite_util.hpp"

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


// ---------------------------------------------------------------------------
// Lazy inputs: generated buffers materialize on first read, and a replay of
// the generator (initial<T>()) is what verify() checks against.
// ---------------------------------------------------------------------------

// FNV-1a over a buffer's materialized contents, one 4-byte element per
// step (a quarter of the byte-wise steps; the digest runs in the sanitizer
// presets too).
template <typename T>
std::uint64_t foldElements(std::uint64_t h, const vcl::Buffer& b) {
  const T* p = b.data<T>();
  for (std::size_t i = 0; i < b.size(); ++i) {
    h ^= std::bit_cast<std::uint32_t>(p[i]);
    h *= common::kFnvPrime;
  }
  return h;
}

std::uint64_t foldContents(std::uint64_t h, const vcl::Buffer& b) {
  switch (b.kind()) {
    case vcl::ElemKind::F32: return foldElements<float>(h, b);
    case vcl::ElemKind::I32: return foldElements<int>(h, b);
    case vcl::ElemKind::U32: return foldElements<unsigned>(h, b);
  }
  return h;
}

// Input-content golden digest: FNV-1a over every buffer of every program
// at every ladder size, as make(n) leaves it before any execution (kind,
// element count, then the materialized contents, in argument order). Pins
// the generated inputs bit for bit, so a change to how inputs are produced
// (draw order, RNG stepping, lazy replay) cannot silently change what the
// suite computes on. Recorded from the eager generator that lazy
// generation replaced.
constexpr std::size_t kGoldenBuffers = 456;
constexpr std::size_t kGoldenElements = 292929961;
constexpr std::uint64_t kGoldenDigest = 0xc89ae71b2c9b383dull;

TEST(SuiteGolden, InputContentsAreBitIdentical) {
  std::uint64_t digest = common::kFnvOffset;
  std::size_t buffers = 0;
  std::size_t elements = 0;
  for (const auto& bench : allBenchmarks()) {
    for (const std::size_t n : bench.sizes) {
      const BenchmarkInstance inst = bench.make(n);
      for (const auto& arg : inst.task.args) {
        const auto* b = std::get_if<runtime::BufferArg>(&arg);
        if (b == nullptr) continue;
        const vcl::Buffer& buf = *b->buffer;
        digest =
            common::fnvU64(digest, static_cast<std::uint64_t>(buf.kind()));
        digest = common::fnvU64(digest, buf.size());
        digest = foldContents(digest, buf);
        ++buffers;
        elements += buf.size();
      }
    }
  }
  EXPECT_EQ(buffers, kGoldenBuffers);
  EXPECT_EQ(elements, kGoldenElements);
  EXPECT_EQ(digest, kGoldenDigest) << std::hex << digest;
}

// initial<T>() is the pre-execution contents for every buffer of every
// program, and stays so after a Compute-mode execute wrote a buffer in
// place (saxpy's y = alpha * x + y).
TEST(SuiteLazyInputs, InitialEqualsMaterializedContents) {
  for (const auto& bench : allBenchmarks()) {
    const BenchmarkInstance inst = bench.make(bench.sizes.front());
    for (const auto& arg : inst.task.args) {
      const auto* b = std::get_if<runtime::BufferArg>(&arg);
      if (b == nullptr) continue;
      const vcl::Buffer& buf = *b->buffer;
      switch (buf.kind()) {
        case vcl::ElemKind::F32:
          EXPECT_EQ(buf.initial<float>(), buf.toVector<float>()) << bench.name;
          break;
        case vcl::ElemKind::I32:
          EXPECT_EQ(buf.initial<int>(), buf.toVector<int>()) << bench.name;
          break;
        case vcl::ElemKind::U32:
          EXPECT_EQ(buf.initial<unsigned>(), buf.toVector<unsigned>())
              << bench.name;
          break;
      }
    }
  }
}

TEST(SuiteLazyInputs, InitialSurvivesAnInPlaceWrite) {
  const Benchmark& bench = benchmarkByName("saxpy");
  BenchmarkInstance inst = bench.make(bench.sizes.front());
  const auto& y = std::get<runtime::BufferArg>(inst.task.args[1]).buffer;
  const std::vector<float> before = y->toVector<float>();
  ASSERT_EQ(y->initial<float>(), before);

  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::Compute);
  runtime::Scheduler scheduler(ctx);
  scheduler.execute(inst.task, runtime::Partitioning{{5, 5, 0}, 10});
  std::string error;
  ASSERT_TRUE(inst.verify(&error)) << error;

  EXPECT_NE(y->toVector<float>(), before);  // the kernel wrote y
  EXPECT_EQ(y->initial<float>(), before);
}

// Laziness contract: building an instance and sweeping it TimeOnly on both
// evaluation machines (the training pattern) reads only sizes, so no buffer
// may materialize. A factory that reads its data eagerly fails here. Every
// size runs the same factory code, so the two ends of each ladder suffice.
TEST(SuiteLazyInputs, TimeOnlySweepNeverMaterializes) {
  const auto machines = sim::evaluationMachines();
  const runtime::PartitioningSpace space(3, 10);
  for (const auto& bench : allBenchmarks()) {
    for (const std::size_t n : {bench.sizes.front(), bench.sizes.back()}) {
      const BenchmarkInstance inst = bench.make(n);
      for (const auto& machine : machines) {
        runtime::measureLaunch(inst.task, machine, space, std::to_string(n));
      }
      for (std::size_t a = 0; a < inst.task.args.size(); ++a) {
        const auto* b = std::get_if<runtime::BufferArg>(&inst.task.args[a]);
        if (b == nullptr) continue;
        EXPECT_FALSE(b->buffer->materialized())
            << bench.name << " n=" << n << " argument " << a;
      }
    }
  }
}

// What set-up pays per input, counted in calls of `draw` while the buffer
// is built: a float input jumps the caller's stream (Rng::discard), a
// factory's last input takes the stream by rvalue and moves it nowhere,
// and only an integer input with later draws steps through its n draws.
// Each buffer still replays exactly what eager generation produced.
template <typename T, typename Draw>
std::vector<T> drawEagerly(std::size_t n, common::Rng& rng, Draw draw) {
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = draw(rng, i);
  return out;
}

TEST(SuiteLazyInputs, FactoriesStepOnlyIntegerInputsThatHaveSuccessors) {
  constexpr std::size_t n = 1000;  // past Rng::discard's stepping range
  const auto floatDraw = [](common::Rng& r, std::size_t) {
    return static_cast<float>(r.uniform(-1.0, 1.0));
  };
  const auto intDraw = [](common::Rng& r, std::size_t) {
    return static_cast<int>(r.range(0, 6));
  };
  std::size_t calls = 0;
  const auto counted = [&calls](auto draw) {
    return [&calls, draw](common::Rng& r, std::size_t i) {
      ++calls;
      return draw(r, i);
    };
  };
  common::Rng rng(71), eager(71);

  const auto floats =
      generatedBuffer<float>(vcl::ElemKind::F32, n, rng, counted(floatDraw));
  EXPECT_EQ(calls, 0u);
  const std::vector<float> floatsEager = drawEagerly<float>(n, eager, floatDraw);
  EXPECT_EQ(rng, eager);

  const auto ints =
      generatedBuffer<int>(vcl::ElemKind::I32, n, rng, counted(intDraw));
  EXPECT_EQ(calls, n);
  const std::vector<int> intsEager = drawEagerly<int>(n, eager, intDraw);
  EXPECT_EQ(rng, eager);

  calls = 0;
  const auto last = generatedBuffer<int>(vcl::ElemKind::I32, n, std::move(rng),
                                         counted(intDraw));
  EXPECT_EQ(calls, 0u);
  const std::vector<int> lastEager = drawEagerly<int>(n, eager, intDraw);

  EXPECT_EQ(floats->initial<float>(), floatsEager);
  EXPECT_EQ(ints->initial<int>(), intsEager);
  EXPECT_EQ(last->initial<int>(), lastEager);
}

}  // namespace
}  // namespace tp::suite
