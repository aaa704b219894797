// vcl (virtual OpenCL) layer tests: buffers, bounds-checked views, atomic
// view operations, launch-argument typing, simulated queues/events, and
// work-group geometry.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <span>
#include <thread>

#include "ocl/buffer.hpp"
#include "ocl/context.hpp"
#include "ocl/kernel.hpp"
#include "ocl/queue.hpp"
#include "ocl/view.hpp"
#include "sim/machine.hpp"

namespace tp::vcl {
namespace {

TEST(Buffer, TypedAccessAndFill) {
  Buffer buf(ElemKind::F32, 16);
  EXPECT_EQ(buf.size(), 16u);
  EXPECT_EQ(buf.bytes(), 64u);
  std::vector<float> values(16);
  for (std::size_t i = 0; i < 16; ++i) values[i] = static_cast<float>(i);
  buf.fill(values);
  EXPECT_FLOAT_EQ(buf.at<float>(7), 7.0f);
  EXPECT_EQ(buf.toVector<float>(), values);
  buf.zero();
  EXPECT_FLOAT_EQ(buf.at<float>(7), 0.0f);
}

TEST(Buffer, FillSizeMismatchThrows) {
  Buffer buf(ElemKind::I32, 4);
  EXPECT_THROW(buf.fill(std::vector<int>{1, 2, 3}), Error);
}

TEST(Buffer, IntAndUnsignedKinds) {
  Buffer bi(ElemKind::I32, 2);
  bi.at<int>(0) = -5;
  EXPECT_EQ(bi.at<int>(0), -5);
  Buffer bu(ElemKind::U32, 2);
  bu.at<unsigned>(1) = 7u;
  EXPECT_EQ(bu.at<unsigned>(1), 7u);
}

TEST(Buffer, ZeroBufferMaterializesOnFirstRead) {
  Buffer buf(ElemKind::F32, 4);
  EXPECT_EQ(buf.bytes(), 16u);
  EXPECT_FALSE(buf.materialized());
  EXPECT_EQ(buf.initial<float>(), std::vector<float>(4, 0.0f));
  EXPECT_FALSE(buf.materialized());
  EXPECT_FLOAT_EQ(buf.at<float>(2), 0.0f);
  EXPECT_TRUE(buf.materialized());
}

TEST(Buffer, GeneratorRunsOncePerMaterializationAndReplaysForInitial) {
  int runs = 0;
  Buffer buf(ElemKind::I32, 8, [&runs](std::span<std::byte> bytes) {
    ++runs;
    auto* out = reinterpret_cast<int*>(bytes.data());
    for (int i = 0; i < 8; ++i) out[i] = 3 * i;
  });
  EXPECT_EQ(buf.bytes(), 32u);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(buf.initial<int>()[5], 15);  // replay, not materialization
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(buf.materialized());

  buf.at<int>(5) = -1;
  EXPECT_TRUE(buf.materialized());
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(buf.toVector<int>()[5], -1);
  buf.zero();
  EXPECT_EQ(runs, 2);  // later reads never re-run the generator
  EXPECT_EQ(buf.at<int>(3), 0);
  EXPECT_EQ(buf.initial<int>()[5], 15);  // pre-write contents survive
}

// Several threads touch one lazy buffer for the first time at once: the
// generator runs exactly once and every thread sees the same storage and
// the same bytes. Runs under the tsan preset (test_ocl).
TEST(Buffer, ConcurrentFirstTouchRunsGeneratorOnce) {
  constexpr std::size_t kElems = 1u << 16;
  constexpr int kThreads = 4;
  std::atomic<int> runs{0};
  Buffer buf(ElemKind::U32, kElems, [&runs](std::span<std::byte> bytes) {
    runs.fetch_add(1, std::memory_order_relaxed);
    auto* out = reinterpret_cast<unsigned*>(bytes.data());
    for (std::size_t i = 0; i < kElems; ++i) {
      out[i] = static_cast<unsigned>(i) * 2654435761u;
    }
  });
  std::vector<unsigned> expected(kElems);
  for (std::size_t i = 0; i < kElems; ++i) {
    expected[i] = static_cast<unsigned>(i) * 2654435761u;
  }

  std::latch start(kThreads);
  std::vector<const unsigned*> seen(kThreads, nullptr);
  std::vector<std::vector<unsigned>> contents(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const unsigned* p = buf.data<unsigned>();
      seen[static_cast<std::size_t>(t)] = p;
      contents[static_cast<std::size_t>(t)].assign(p, p + kElems);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(runs.load(), 1);
  EXPECT_TRUE(buf.materialized());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]) << "thread " << t;
    EXPECT_EQ(contents[static_cast<std::size_t>(t)], expected)
        << "thread " << t;
  }
}

TEST(BufferView, AbsoluteIndexingWithinSlice) {
  std::vector<float> storage(100, 0.0f);
  BufferView<float> view(storage.data(), 40, 20);  // [40, 60)
  view[40] = 1.5f;
  view[59] = 2.5f;
  EXPECT_FLOAT_EQ(storage[40], 1.5f);
  EXPECT_FLOAT_EQ(storage[59], 2.5f);
  EXPECT_FLOAT_EQ(view.load(40), 1.5f);
}

TEST(BufferView, OutOfSliceAccessThrows) {
  std::vector<float> storage(100, 0.0f);
  BufferView<float> view(storage.data(), 40, 20);
  EXPECT_THROW(view[39], Error);
  EXPECT_THROW(view[60], Error);
  EXPECT_THROW(view[0], Error);
  EXPECT_NO_THROW(view[40]);
  EXPECT_NO_THROW(view[59]);
}

TEST(BufferView, AtomicAddIsAtomicUnderContention) {
  std::vector<int> storage(4, 0);
  BufferView<int> view(storage.data(), 0, 4);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&view] {
      for (int i = 0; i < kIncrements; ++i) view.atomicAdd(2, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(storage[2], kThreads * kIncrements);
}

TEST(LaunchArgs, TypedSlots) {
  std::vector<float> f(8);
  std::vector<int> i(8);
  LaunchArgs args;
  args.addView(BufferView<float>(f.data(), 0, 8));
  args.addView(BufferView<int>(i.data(), 0, 8));
  args.addScalar(42);
  args.addScalar(2.5f);
  EXPECT_EQ(args.size(), 4u);
  EXPECT_EQ(args.view<float>(0).count(), 8u);
  EXPECT_EQ(args.view<int>(1).count(), 8u);
  EXPECT_EQ(args.scalarInt(2), 42);
  EXPECT_FLOAT_EQ(args.scalarFloat(3), 2.5f);
}

TEST(WorkGroupCtx, GlobalIdGeometry) {
  WorkGroupCtx ctx;
  ctx.groupId = 5;
  ctx.localSize = 64;
  ctx.globalSize = 1024;
  ctx.numGroups = 16;
  EXPECT_EQ(ctx.globalId(0), 320u);
  EXPECT_EQ(ctx.globalId(63), 383u);
}

features::KernelFeatures trivialFeatures() {
  features::KernelFeatures f;
  f.floatOps = ir::WorkExpr::constant(10.0);
  f.globalLoads = ir::WorkExpr::constant(1.0);
  f.globalStores = ir::WorkExpr::constant(1.0);
  return f;
}

/// Bound per-item counts of trivialFeatures() for the launch `ctx`.
features::WorkCounts trivialCounts(const WorkGroupCtx& ctx) {
  return features::CompiledFeatures(trivialFeatures()).counts({}, ctx.globalSize);
}

TEST(CommandQueue, InOrderTimeline) {
  const auto machine = sim::makeMc2();
  CommandQueue queue(machine.devices[1], ExecMode::TimeOnly, nullptr);

  const Event w = queue.enqueueWrite(1e6);
  EXPECT_DOUBLE_EQ(w.start, 0.0);
  EXPECT_GT(w.end, w.start);

  WorkGroupCtx ctx;
  ctx.localSize = 64;
  ctx.globalSize = 4096;
  ctx.numGroups = 64;
  const Event k = queue.enqueueKernel(trivialCounts(ctx), 0, 64, ctx,
                                      nullptr, LaunchArgs{});
  EXPECT_DOUBLE_EQ(k.start, w.end);  // in-order
  EXPECT_GT(k.duration(), 0.0);

  const Event r = queue.enqueueRead(1e6);
  EXPECT_DOUBLE_EQ(r.start, k.end);
  EXPECT_DOUBLE_EQ(queue.now(), r.end);

  queue.resetClock();
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
}

TEST(CommandQueue, EmptyChunkCostsNothing) {
  const auto machine = sim::makeMc1();
  CommandQueue queue(machine.devices[0], ExecMode::TimeOnly, nullptr);
  WorkGroupCtx ctx;
  ctx.localSize = 64;
  ctx.globalSize = 1024;
  ctx.numGroups = 16;
  const Event e = queue.enqueueKernel(trivialCounts(ctx), 4, 4, ctx,
                                      nullptr, LaunchArgs{});
  EXPECT_DOUBLE_EQ(e.duration(), 0.0);
}

TEST(CommandQueue, ComputeModeExecutesEachGroupExactlyOnce) {
  const auto machine = sim::makeMc1();
  common::ThreadPool pool(4);
  CommandQueue queue(machine.devices[0], ExecMode::Compute, &pool);

  std::vector<std::atomic<int>> hits(16);
  WorkGroupCtx ctx;
  ctx.localSize = 64;
  ctx.globalSize = 1024;
  ctx.numGroups = 16;
  const NativeKernel kernel = [&hits](const WorkGroupCtx& wg,
                                      const LaunchArgs&) {
    hits[wg.groupId]++;
  };
  queue.enqueueKernel(trivialCounts(ctx), 3, 11, ctx, kernel,
                      LaunchArgs{});
  for (std::size_t g = 0; g < 16; ++g) {
    EXPECT_EQ(hits[g].load(), (g >= 3 && g < 11) ? 1 : 0) << "group " << g;
  }
}

TEST(Context, DevicesAndClocks) {
  Context ctx(sim::makeMc1(), ExecMode::TimeOnly, nullptr);
  EXPECT_EQ(ctx.numDevices(), 3u);
  EXPECT_EQ(ctx.mode(), ExecMode::TimeOnly);
  ctx.queue(0).enqueueWrite(1e6);
  ctx.queue(2).enqueueWrite(1e6);
  EXPECT_GT(ctx.queue(0).now(), 0.0);
  EXPECT_DOUBLE_EQ(ctx.queue(1).now(), 0.0);  // queues are independent
  ctx.resetClocks();
  EXPECT_DOUBLE_EQ(ctx.queue(0).now(), 0.0);
  EXPECT_DOUBLE_EQ(ctx.queue(2).now(), 0.0);

  auto buf = ctx.createBuffer(ElemKind::F32, 32);
  EXPECT_EQ(buf->size(), 32u);
}

}  // namespace
}  // namespace tp::vcl
