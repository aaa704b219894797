// Scheduler tests: simulated-timeline properties (concurrency, transfer
// accounting, merge cost) and Compute-mode execution through the full
// TaskBuilder path, including slice enforcement.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hpp"
#include "runtime/compiler.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/strategy.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace tp::runtime {
namespace {

const char* kScaleSrc = R"(
__kernel void scale(__global const float* in, __global float* out, int K) {
  int i = get_global_id(0);
  float x = in[i];
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    acc += x * 1.0001f;
  }
  out[i] = acc;
}
)";

Task makeScaleTask(std::size_t n, int k) {
  static const CompiledKernel compiled = CompiledKernel::compile(kScaleSrc);
  auto in = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  auto out = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  for (std::size_t i = 0; i < n; ++i) {
    in->data<float>()[i] = static_cast<float>(i % 17) * 0.25f;
  }
  return TaskBuilder(compiled, "scale")
      .global(n)
      .local(64)
      .arg(in)
      .arg(out)
      .arg(k)
      .native([](const vcl::WorkGroupCtx& wg, const vcl::LaunchArgs& args) {
        auto in = args.view<float>(0);
        auto out = args.view<float>(1);
        const int k = args.scalarInt(2);
        for (std::size_t l = 0; l < wg.localSize; ++l) {
          const std::size_t i = wg.globalId(l);
          const float x = in[i];
          float acc = 0.0f;
          for (int kk = 0; kk < k; ++kk) acc += x * 1.0001f;
          out[i] = acc;
        }
      })
      .build();
}

PartitioningSpace space3() { return PartitioningSpace(3, 10); }

// Shared invariants of any splitGroups result: chunks are contiguous in
// device order, cover exactly [0, totalGroups), and zero-share devices
// receive no work.
void expectValidChunks(
    const std::vector<std::pair<std::size_t, std::size_t>>& chunks,
    std::size_t totalGroups, const Partitioning& p) {
  ASSERT_EQ(chunks.size(), p.numDevices());
  std::size_t cursor = 0;
  for (std::size_t d = 0; d < chunks.size(); ++d) {
    EXPECT_EQ(chunks[d].first, cursor) << "gap before device " << d;
    EXPECT_LE(chunks[d].first, chunks[d].second);
    if (p.units[d] == 0) {
      EXPECT_EQ(chunks[d].first, chunks[d].second)
          << "zero-share device " << d << " received groups";
    }
    cursor = chunks[d].second;
  }
  EXPECT_EQ(cursor, totalGroups);
}

TEST(SplitGroups, ZeroGroupsYieldsEmptyChunks) {
  for (const auto& units : {std::vector<int>{10, 0, 0},
                            std::vector<int>{3, 3, 4},
                            std::vector<int>{0, 5, 5}}) {
    const Partitioning p{units, 10};
    const auto chunks = splitGroups(0, p);
    expectValidChunks(chunks, 0, p);
    for (const auto& [begin, end] : chunks) {
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 0u);
    }
  }
}

TEST(SplitGroups, FewerGroupsThanActiveDevices) {
  // 3 active devices but only 2 (then 1) groups: the largest shares win
  // the scarce groups and coverage stays contiguous and exact.
  const Partitioning p{{4, 3, 3}, 10};
  for (const std::size_t totalGroups : {std::size_t{1}, std::size_t{2}}) {
    const auto chunks = splitGroups(totalGroups, p);
    expectValidChunks(chunks, totalGroups, p);
    std::size_t withWork = 0;
    for (const auto& [begin, end] : chunks) withWork += (end > begin) ? 1 : 0;
    EXPECT_EQ(withWork, totalGroups);  // nobody gets a partial group
  }
}

TEST(SplitGroups, SingleDevicePartitionings) {
  const std::size_t totalGroups = 100;
  for (std::size_t only = 0; only < 3; ++only) {
    std::vector<int> units(3, 0);
    units[only] = 10;
    const Partitioning p{units, 10};
    const auto chunks = splitGroups(totalGroups, p);
    expectValidChunks(chunks, totalGroups, p);
    EXPECT_EQ(chunks[only].first, 0u);
    EXPECT_EQ(chunks[only].second, totalGroups);
  }
}

TEST(SplitGroups, CoversRangeForEveryPartitioningAndAwkwardCounts) {
  const PartitioningSpace space(3, 10);
  // Group counts that do not divide evenly by any 10% share.
  for (const std::size_t totalGroups :
       {std::size_t{1}, std::size_t{7}, std::size_t{13}, std::size_t{999}}) {
    for (const auto& p : space.all()) {
      expectValidChunks(splitGroups(totalGroups, p), totalGroups, p);
    }
  }
}

TEST(Scheduler, SingleDeviceMakespanMatchesQueueTime) {
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 16, 200);
  const auto space = space3();

  const auto result = scheduler.execute(task, space.at(space.cpuOnlyIndex()));
  ASSERT_EQ(result.devices.size(), 1u);
  const auto& d = result.devices[0];
  EXPECT_EQ(d.device, 0u);
  EXPECT_DOUBLE_EQ(result.makespan, d.endTime);
  EXPECT_NEAR(d.endTime,
              d.transferInSeconds + d.kernelSeconds + d.transferOutSeconds,
              1e-12);
  EXPECT_DOUBLE_EQ(result.mergeSeconds, 0.0);
}

TEST(Scheduler, DevicesRunConcurrently) {
  vcl::Context ctx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 20, 2000);
  const auto space = space3();

  const double gpuOnly =
      scheduler.execute(task, space.at(space.singleDeviceIndex(1))).makespan;
  const double split =
      scheduler.execute(task, space.at(space.indexOf({{0, 5, 5}, 10})))
          .makespan;
  // Two GPUs each doing half of a saturated compute problem beat one GPU.
  EXPECT_LT(split, gpuOnly);
  EXPECT_GT(split, 0.4 * gpuOnly);
}

TEST(Scheduler, MakespanIsMaxOfDeviceEndTimes) {
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 18, 500);
  const auto result =
      scheduler.execute(task, Partitioning{{2, 4, 4}, 10});
  ASSERT_EQ(result.devices.size(), 3u);
  double maxEnd = 0.0;
  for (const auto& d : result.devices) maxEnd = std::max(maxEnd, d.endTime);
  EXPECT_DOUBLE_EQ(result.makespan, maxEnd + result.mergeSeconds);
}

TEST(Scheduler, SplitBuffersTransferOnlyTheirSlice) {
  vcl::Context ctx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 20, 10);
  const auto space = space3();

  // 10% on GPU1 vs 100% on GPU1: the transfer-in time scales with the slice.
  const auto small =
      scheduler.execute(task, space.at(space.indexOf({{9, 1, 0}, 10})));
  const auto full =
      scheduler.execute(task, space.at(space.singleDeviceIndex(1)));
  const auto* gpuSmall = &small.devices[1];
  ASSERT_EQ(gpuSmall->device, 1u);
  EXPECT_NEAR(gpuSmall->transferInSeconds,
              full.devices[0].transferInSeconds * 0.1, 2e-5);
}

TEST(Scheduler, RejectsMismatchedPartitioning) {
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(ctx);
  const Task task = makeScaleTask(1 << 10, 10);
  EXPECT_THROW(scheduler.execute(task, Partitioning{{10, 0}, 10}), Error);
}

TEST(Scheduler, ComputeModeProducesCorrectResultsUnderAnySplit) {
  const auto space = space3();
  for (const auto& units : {std::vector<int>{10, 0, 0},
                            std::vector<int>{0, 10, 0},
                            std::vector<int>{3, 3, 4},
                            std::vector<int>{1, 9, 0}}) {
    vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::Compute);
    Scheduler scheduler(ctx);
    const std::size_t n = 1 << 12;
    const int k = 3;
    Task task = makeScaleTask(n, k);
    scheduler.execute(task, Partitioning{units, 10});

    const auto& out = std::get<BufferArg>(task.args[1]).buffer;
    const auto& in = std::get<BufferArg>(task.args[0]).buffer;
    for (std::size_t i = 0; i < n; ++i) {
      const float x = in->data<float>()[i];
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += x * 1.0001f;
      ASSERT_FLOAT_EQ(out->data<float>()[i], acc) << "at index " << i;
    }
  }
}

TEST(Scheduler, TimeOnlyAndComputeReportIdenticalMakespans) {
  const Task t1 = makeScaleTask(1 << 12, 20);
  vcl::Context timeCtx(sim::makeMc2(), vcl::ExecMode::TimeOnly, nullptr);
  vcl::Context computeCtx(sim::makeMc2(), vcl::ExecMode::Compute);
  const Partitioning p{{3, 4, 3}, 10};
  const double tTime = Scheduler(timeCtx).execute(t1, p).makespan;
  const double tCompute = Scheduler(computeCtx).execute(t1, p).makespan;
  EXPECT_DOUBLE_EQ(tTime, tCompute);
}

TEST(OracleSearch, FindsArgminOfTimings) {
  const Task task = makeScaleTask(1 << 16, 100);
  const auto space = space3();
  std::vector<double> timings;
  const std::size_t best =
      oracleSearch(task, sim::makeMc2(), space, &timings);
  ASSERT_EQ(timings.size(), space.size());
  for (const double t : timings) EXPECT_GT(t, 0.0);
  for (std::size_t i = 0; i < timings.size(); ++i) {
    EXPECT_LE(timings[best], timings[i]);
  }
}

TEST(Strategies, DefaultsPickTheirCorners) {
  vcl::Context ctx(sim::makeMc1(), vcl::ExecMode::TimeOnly, nullptr);
  const auto space = space3();
  const Task task = makeScaleTask(1 << 10, 10);

  CpuOnlyStrategy cpu;
  EXPECT_EQ(cpu.choose(task, ctx, space), space.cpuOnlyIndex());
  GpuOnlyStrategy gpu;
  EXPECT_EQ(gpu.choose(task, ctx, space), space.singleDeviceIndex(1));
  StaticStrategy fixed(17);
  EXPECT_EQ(fixed.choose(task, ctx, space), 17u);
  OracleStrategy oracle;
  const std::size_t best = oracle.choose(task, ctx, space);
  EXPECT_LT(best, space.size());
}

// Golden execution digest: every suite program at every ladder size on
// both evaluation machines under all 66 partitionings, TimeOnly. The
// digest folds the bit patterns of every makespan and per-device time, so
// any change to the cost model's arithmetic (term order, multiply/sum
// order, clamping, default bindings) fails here even when it moves no
// decision. The expected values were recorded from the map-binding
// implementation the compiled cost plan replaced.
TEST(SchedulerGolden, SuiteLadderExecutionsAreBitIdentical) {
  const auto machines = sim::evaluationMachines();
  std::vector<std::unique_ptr<vcl::Context>> contexts;
  for (const auto& machine : machines) {
    contexts.push_back(std::make_unique<vcl::Context>(
        machine, vcl::ExecMode::TimeOnly, nullptr));
  }
  const PartitioningSpace space(3, 10);
  ASSERT_EQ(space.size(), 66u);

  std::uint64_t digest = common::kFnvOffset;
  std::size_t executions = 0;
  for (const auto& bench : suite::allBenchmarks()) {
    for (const std::size_t n : bench.sizes) {
      const auto inst = bench.make(n);
      for (const auto& ctx : contexts) {
        ASSERT_EQ(ctx->numDevices(), space.numDevices());
        Scheduler scheduler(*ctx);
        for (const auto& p : space.all()) {
          const ExecutionResult r = scheduler.execute(inst.task, p);
          digest = common::fnvDouble(digest, r.makespan);
          digest = common::fnvDouble(digest, r.mergeSeconds);
          for (const auto& d : r.devices) {
            digest = common::fnvU64(digest, d.device);
            digest = common::fnvDouble(digest, d.transferInSeconds);
            digest = common::fnvDouble(digest, d.kernelSeconds);
            digest = common::fnvDouble(digest, d.transferOutSeconds);
            digest = common::fnvDouble(digest, d.endTime);
          }
          ++executions;
        }
      }
    }
  }
  EXPECT_EQ(executions, 18216u);
  EXPECT_EQ(digest, 0x63008c61eaa26ac7ull) << std::hex << digest;
}

// The suite's launches bind every count parameter to a scalar argument and
// mostly use power-of-two sizes, where products are exact. This kernel
// covers what they leave out: get_global_size in the counts (with a stale
// size binding of the same name that the real global size must override),
// an unknown-trip while loop (unbound, evaluated at 16), weighted branch
// arms and special functions, at sizes whose products round.
const char* kEdgeSrc = R"(
__kernel void edge(__global const float* in, __global float* out, int K) {
  int i = get_global_id(0);
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    if (in[i] > 0.5f) {
      acc += in[i] * 0.3f;
    } else {
      acc -= 1.0f;
    }
  }
  for (int j = 0; j < get_global_size(0) / 64; j++) {
    acc += 1.0f;
  }
  int m = K;
  while (m > 1) {
    acc = sqrt(acc + 1.0f);
    m = m / 3;
  }
  out[i] = acc;
}
)";

TEST(SchedulerGolden, SymbolicEdgeCasesAreBitIdentical) {
  static const CompiledKernel compiled = CompiledKernel::compile(kEdgeSrc);
  const PartitioningSpace space(3, 10);
  std::uint64_t digest = common::kFnvOffset;
  for (const auto& machine : sim::evaluationMachines()) {
    vcl::Context ctx(machine, vcl::ExecMode::TimeOnly, nullptr);
    Scheduler scheduler(ctx);
    for (const std::size_t groups : {37u, 1000u, 4099u}) {
      for (const int k : {7, 100, 333}) {
        const std::size_t n = groups * 64;
        const Task task =
            TaskBuilder(compiled, "edge")
                .global(n)
                .local(64)
                .arg(std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n))
                .arg(std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n))
                .arg(k)
                .bind(features::kGlobalSizeParam, 3.0)
                .transferAmortization(3.0)
                .build();
        for (const auto& p : space.all()) {
          const ExecutionResult r = scheduler.execute(task, p);
          digest = common::fnvDouble(digest, r.makespan);
          for (const auto& d : r.devices) {
            digest = common::fnvDouble(digest, d.kernelSeconds);
            digest = common::fnvDouble(digest, d.endTime);
          }
        }
      }
    }
  }
  EXPECT_EQ(digest, 0xda447c22146f2ce6ull) << std::hex << digest;
}

}  // namespace
}  // namespace tp::runtime
