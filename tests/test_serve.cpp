// tp::serve tests: cache key quantization, fingerprinted open-addressing
// cache semantics (capacity, CLOCK eviction, versioned invalidation,
// collision verification), counter consistency under ThreadPool
// contention, striped latency reservoirs, feedback deduplication, and the
// PartitionService end to end — served decisions (inline hits included)
// equal the unbatched predict path, retrain swaps models without
// deadlock, shutdown drains.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>

#include "common/intern.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/health.hpp"
#include "runtime/compiler.hpp"
#include "runtime/evaluation.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"

namespace tp::serve {
namespace {

// ---- cache ----------------------------------------------------------------

/// Full key + its fingerprint, the pair every cache mutation needs. The
/// interner mimics what PartitionService does per (machine, program).
struct TestKey {
  DecisionKey key;
  common::Fingerprint fp;
};

common::PairInterner& testInterner() {
  static common::PairInterner interner(1024);
  return interner;
}

TestKey key(DecisionCache& cache, const std::string& program,
            std::vector<double> features,
            const std::string& machine = "mc2") {
  TestKey k;
  k.key = cache.makeKey(machine, program, std::move(features));
  const std::uint32_t pairId = testInterner().intern(machine, program);
  k.fp = launchFingerprint(pairId, k.key.features);
  return k;
}

TEST(RoundSignificant, QuantizesToSignificantDigits) {
  EXPECT_DOUBLE_EQ(roundSignificant(123456.789, 4), 123500.0);
  EXPECT_DOUBLE_EQ(roundSignificant(0.000123456, 3), 0.000123);
  EXPECT_DOUBLE_EQ(roundSignificant(-987.654, 2), -990.0);
  EXPECT_DOUBLE_EQ(roundSignificant(0.0, 6), 0.0);
  // digits <= 0 disables rounding.
  EXPECT_DOUBLE_EQ(roundSignificant(1.23456789, 0), 1.23456789);
}

TEST(RoundSignificant, SurvivesExtremeMagnitudes) {
  // Near the double range limits the internal scale can overflow; keys
  // must stay finite and self-equal (a NaN component never equals itself).
  for (const double v : {1e-305, -1e-305, 5e-324, 1e308, -1e308}) {
    const double r = roundSignificant(v, 6);
    EXPECT_TRUE(std::isfinite(r)) << v;
    EXPECT_EQ(r, roundSignificant(v, 6)) << v;
  }
  DecisionCache cache(4);
  const auto tiny = key(cache, "p", {1e-305});
  cache.insert(tiny.fp, tiny.key, 3);
  EXPECT_EQ(cache.lookup(tiny.fp, tiny.key.modelVersion).value(), 3u);
  EXPECT_EQ(cache.size(), 1u);
  const auto again = key(cache, "p", {1e-305});  // same key, no duplicate
  EXPECT_EQ(again.fp, tiny.fp);
  cache.insert(again.fp, again.key, 3);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RoundSignificant, CollapsesJitterAndNormalizesZero) {
  EXPECT_EQ(roundSignificant(1.0000000001, 6), roundSignificant(1.0, 6));
  EXPECT_EQ(roundSignificant(1e9 + 1.0, 6), roundSignificant(1e9, 6));
  // -0.0 and 0.0 must hash identically.
  EXPECT_FALSE(std::signbit(roundSignificant(-0.0, 6)));
  // A 1% difference stays distinct.
  EXPECT_NE(roundSignificant(1.00, 6), roundSignificant(1.01, 6));
}

TEST(DecisionCacheBasics, HitMissAndCapacityEviction) {
  DecisionCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  const auto a = key(cache, "a", {1.0});
  const auto b = key(cache, "b", {2.0});
  const auto c = key(cache, "c", {3.0});

  EXPECT_FALSE(cache.lookup(a.fp, 0).has_value());
  cache.insert(a.fp, a.key, 11);
  cache.insert(b.fp, b.key, 22);
  EXPECT_EQ(cache.lookup(a.fp, 0).value(), 11u);
  cache.insert(c.fp, c.key, 33);  // table full: CLOCK evicts one entry
  EXPECT_EQ(cache.size(), 2u);
  // Whichever two entries survived must serve their own labels.
  std::size_t present = 0;
  if (const auto hit = cache.lookup(a.fp, 0)) {
    EXPECT_EQ(*hit, 11u);
    ++present;
  }
  if (const auto hit = cache.lookup(b.fp, 0)) {
    EXPECT_EQ(*hit, 22u);
    ++present;
  }
  if (const auto hit = cache.lookup(c.fp, 0)) {
    EXPECT_EQ(*hit, 33u);
    ++present;
  }
  EXPECT_EQ(present, 2u);

  const auto counters = cache.counters();
  EXPECT_EQ(counters.lookups, 5u);
  EXPECT_EQ(counters.hits + counters.misses, counters.lookups);
  EXPECT_EQ(counters.insertions, 3u);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.insertions - counters.evictions - counters.invalidations,
            cache.size());
}

TEST(DecisionCacheBasics, InsertRefreshesExistingEntry) {
  DecisionCache cache(4);
  const auto a = key(cache, "a", {1.0});
  cache.insert(a.fp, a.key, 1);
  cache.insert(a.fp, a.key, 7);  // refresh, not a second entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(a.fp, 0).value(), 7u);
  EXPECT_EQ(cache.counters().insertions, 1u);
  EXPECT_EQ(cache.counters().collisions, 0u);
}

TEST(DecisionCacheBasics, CapacityRoundsUpToPowerOfTwoAndBoundsOccupancy) {
  DecisionCache cache(10);
  EXPECT_EQ(cache.capacity(), 16u);  // rounded up, occupancy-bounded
  for (int i = 0; i < 200; ++i) {
    const auto k =
        key(cache, std::string("p").append(std::to_string(i)),
            {static_cast<double>(i)});
    cache.insert(k.fp, k.key, static_cast<std::size_t>(i % 97));
  }
  EXPECT_LE(cache.size(), cache.capacity());
  const auto c = cache.counters();
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());
}

TEST(DecisionCacheBasics, QuantizedKeysCollapseJitter) {
  DecisionCache cache(8, 6);
  const auto exact = key(cache, "p", {1048576.0, 64.0, 4194304.0});
  const auto jittered =
      key(cache, "p", {1048576.0 * (1.0 + 1e-12), 64.0, 4194304.0 + 1e-6});
  EXPECT_EQ(exact.key, jittered.key);
  EXPECT_EQ(exact.fp, jittered.fp);
  const auto different = key(cache, "p", {2097152.0, 64.0, 4194304.0});
  EXPECT_FALSE(exact.key == different.key);
  EXPECT_FALSE(exact.fp == different.fp);

  cache.insert(exact.fp, exact.key, 5);
  EXPECT_EQ(cache.lookup(jittered.fp, 0).value(), 5u);
  EXPECT_FALSE(cache.lookup(different.fp, 0).has_value());
}

TEST(DecisionCacheBasics, StreamingFingerprintMatchesVectorForm) {
  // The hit path streams quantized fields straight out of the Task; the
  // insert path folds the materialized key vector. They must agree, or
  // warm traffic would never hit its own insertions.
  const std::uint32_t pairId = 7;
  runtime::Task task;
  task.programName = "prog";
  task.kernelName = "kern";
  task.globalSize = 1 << 20;
  task.localSize = 64;
  task.transferScale = 0.25;
  task.sizeBindings["K"] = 2000.0;
  task.sizeBindings["n"] = 1048576.0 * (1.0 + 1e-13);  // quantized away

  std::vector<double> sig = launchSignature(task);
  for (double& f : sig) f = roundSignificant(f, 6);
  EXPECT_EQ(launchFingerprint(pairId, task, 6), launchFingerprint(pairId, sig));
  // A different pair id is a different fingerprint (same signature).
  EXPECT_FALSE(launchFingerprint(pairId, sig) ==
               launchFingerprint(pairId + 1, sig));
}

TEST(DecisionCacheBasics, OversizedLabelDegradesToUncachedServing) {
  // Labels beyond the packed meta width (pathologically large
  // partitioning spaces) must not throw on the miss path: the insert is
  // a no-op and the key simply serves uncached.
  DecisionCache cache(8);
  const auto a = key(cache, "a", {1.0});
  cache.insert(a.fp, a.key, std::size_t{1} << 20);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(a.fp, 0).has_value());
  cache.insert(a.fp, a.key, 5);  // in-range labels still cache
  EXPECT_EQ(cache.lookup(a.fp, 0).value(), 5u);
}

TEST(DecisionCacheBasics, InsertVerifiesFullKeyAndCountsCollisions) {
  // Force a "fingerprint collision": two different full keys presented
  // under the same fingerprint. The insert-time verification must detect
  // the mismatch, count it, and let the newest key win.
  DecisionCache cache(8);
  const auto a = key(cache, "a", {1.0});
  auto forged = key(cache, "b", {2.0});
  forged.fp = a.fp;

  cache.insert(a.fp, a.key, 3);
  EXPECT_EQ(cache.counters().collisions, 0u);
  cache.insert(forged.fp, forged.key, 9);
  EXPECT_EQ(cache.counters().collisions, 1u);
  EXPECT_EQ(cache.size(), 1u);  // replaced, not duplicated
  EXPECT_EQ(cache.lookup(a.fp, 0).value(), 9u);
  // Re-inserting the same identity is a refresh, not another collision.
  cache.insert(forged.fp, forged.key, 4);
  EXPECT_EQ(cache.counters().collisions, 1u);
}

TEST(DecisionCacheVersioning, FreshInsertSurvivesTheInvalidationSweep) {
  // Deterministic replay of the retrain-vs-insert interleaving: a lane
  // worker computes a decision under the *new* model version while
  // bumpVersion()'s sweep is still walking the table. The fresh entry
  // must survive the sweep; only stale-generation entries may be dropped.
  DecisionCache cache(8);
  const auto stale1 = key(cache, "p", {1.0});
  const auto stale2 = key(cache, "q", {2.0});
  cache.insert(stale1.fp, stale1.key, 1);
  cache.insert(stale2.fp, stale2.key, 2);

  // Step 1 of bumpVersion(): the version increments (and sweeps).
  const auto v = cache.bumpVersion();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.counters().invalidations, 2u);

  // Step 2: an in-flight insert stamped with the *new* version lands.
  const auto fresh = key(cache, "p", {1.0});
  EXPECT_EQ(fresh.key.modelVersion, v);
  EXPECT_EQ(fresh.fp, stale1.fp);  // same identity, version-free fingerprint
  cache.insert(fresh.fp, fresh.key, 7);

  // Step 3: the remainder of the sweep runs. The fresh entry survives and
  // the invalidation counter does not drift.
  cache.clearStale();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(fresh.fp, v).value(), 7u);
  EXPECT_EQ(cache.counters().invalidations, 2u);  // no drift

  // A stale-stamped in-flight insert is still rejected outright.
  cache.insert(stale1.fp, stale1.key, 9);
  EXPECT_EQ(cache.size(), 1u);
  const auto c = cache.counters();
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());
}

TEST(DecisionCacheVersioning, VersionBumpInvalidatesAndDropsStaleInserts) {
  DecisionCache cache(8);
  const auto stale = key(cache, "p", {1.0});
  cache.insert(stale.fp, stale.key, 5);
  EXPECT_EQ(cache.size(), 1u);

  const auto v = cache.bumpVersion();
  EXPECT_EQ(v, cache.version());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_GE(cache.counters().invalidations, 1u);

  // A key stamped before the bump can neither hit nor pollute the cache.
  EXPECT_FALSE(cache.lookup(stale.fp, stale.key.modelVersion).has_value());
  cache.insert(stale.fp, stale.key, 9);
  EXPECT_EQ(cache.size(), 0u);

  const auto fresh = key(cache, "p", {1.0});
  EXPECT_EQ(fresh.key.modelVersion, v);
  cache.insert(fresh.fp, fresh.key, 9);
  EXPECT_EQ(cache.lookup(fresh.fp, v).value(), 9u);
  // The old generation's stamp misses even though the entry is resident.
  EXPECT_FALSE(cache.lookup(fresh.fp, v - 1).has_value());
}

TEST(DecisionCacheContention, CountersAndCapacityStayConsistent) {
  // Hammer the table from ThreadPool workers: 64-entry cache, 300
  // distinct keys, 20k mixed lookup/insert operations.
  DecisionCache cache(64);
  common::ThreadPool pool(8);
  constexpr std::size_t kOps = 20000;
  constexpr std::size_t kDistinct = 300;
  std::atomic<std::uint64_t> wrongValues{0};

  pool.parallelFor(0, kOps, [&](std::size_t i) {
    const std::size_t k = (i * 2654435761u) % kDistinct;
    const auto tk = key(cache, "p" + std::to_string(k),
                        {static_cast<double>(k), 64.0}, "mc1");
    if (const auto hit = cache.lookup(tk.fp, 0)) {
      // Values are a pure function of the key, so hits can never be wrong.
      if (*hit != k) wrongValues.fetch_add(1);
    } else {
      cache.insert(tk.fp, tk.key, k);
    }
  });
  pool.waitIdle();

  EXPECT_EQ(wrongValues.load(), 0u);
  EXPECT_LE(cache.size(), 64u);
  const auto c = cache.counters();
  EXPECT_EQ(c.lookups, kOps);
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());
  EXPECT_EQ(c.collisions, 0u);
}

TEST(DecisionCacheContention, SurvivesConcurrentInvalidation) {
  DecisionCache cache(32);
  common::ThreadPool pool(8);
  pool.parallelFor(0, 10000, [&](std::size_t i) {
    if (i % 2500 == 0) {
      cache.bumpVersion();
      return;
    }
    const std::size_t k = i % 90;
    const auto tk =
        key(cache, "p" + std::to_string(k), {static_cast<double>(k)});
    if (!cache.lookup(tk.fp, tk.key.modelVersion).has_value()) {
      cache.insert(tk.fp, tk.key, k);
    }
  });
  pool.waitIdle();

  EXPECT_LE(cache.size(), 32u);
  const auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  EXPECT_EQ(c.insertions - c.evictions - c.invalidations, cache.size());
}

// ---- latency recorder -----------------------------------------------------

TEST(LatencyRecorder, EmptySummaryIsAllZero) {
  LatencyRecorder rec(16);
  const auto s = rec.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.meanSeconds, 0.0);
  EXPECT_DOUBLE_EQ(s.maxSeconds, 0.0);
  EXPECT_DOUBLE_EQ(s.p50Seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.p95Seconds, 0.0);
  EXPECT_THROW(LatencyRecorder(0), Error);
}

TEST(LatencyRecorder, SingleSampleIsEveryPercentile) {
  LatencyRecorder rec(16);
  rec.add(0.25);
  const auto s = rec.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.meanSeconds, 0.25);
  EXPECT_DOUBLE_EQ(s.maxSeconds, 0.25);
  EXPECT_DOUBLE_EQ(s.p50Seconds, 0.25);
  EXPECT_DOUBLE_EQ(s.p95Seconds, 0.25);
}

TEST(LatencyRecorder, ExactBoundaryPercentilesOverTheWindow) {
  // 21 samples 0..20 ms: p50 and p95 rank exactly onto elements 10 and
  // 19 — no interpolation drift allowed.
  LatencyRecorder rec(64);
  for (int i = 0; i <= 20; ++i) rec.add(static_cast<double>(i) * 1e-3);
  const auto s = rec.summary();
  EXPECT_EQ(s.count, 21u);
  EXPECT_DOUBLE_EQ(s.p50Seconds, 10e-3);
  EXPECT_DOUBLE_EQ(s.p95Seconds, 19e-3);
  EXPECT_DOUBLE_EQ(s.maxSeconds, 20e-3);
}

TEST(LatencyRecorder, WindowWrapsButLifetimeStatsPersist) {
  LatencyRecorder rec(4);
  for (int i = 1; i <= 8; ++i) rec.add(static_cast<double>(i));
  const auto s = rec.summary();
  // count/mean/max run over all 8 samples ...
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.meanSeconds, 4.5);
  EXPECT_DOUBLE_EQ(s.maxSeconds, 8.0);
  // ... but percentiles only over the surviving window {5,6,7,8}.
  EXPECT_DOUBLE_EQ(s.p50Seconds, 6.5);
  EXPECT_GE(s.p50Seconds, 5.0);
  EXPECT_LE(s.p95Seconds, 8.0);
}

TEST(LatencyRecorder, SnapshotRacesWithWritersCleanly) {
  // Writers hammer add() while readers snapshot; every summary must be
  // internally consistent (mean <= max, percentiles inside the observed
  // range). Runs under TSan in CI.
  LatencyRecorder rec(128);
  common::ThreadPool pool(6);
  std::atomic<std::uint64_t> inconsistencies{0};
  pool.parallelFor(0, 6000, [&](std::size_t i) {
    if (i % 5 == 0) {
      const auto s = rec.summary();
      if (s.count > 0) {
        const bool ok = s.meanSeconds <= s.maxSeconds + 1e-12 &&
                        s.p50Seconds <= s.p95Seconds + 1e-12 &&
                        s.p95Seconds <= s.maxSeconds + 1e-12 &&
                        s.p50Seconds >= 0.0;
        if (!ok) inconsistencies.fetch_add(1);
      }
    } else {
      rec.add(static_cast<double>(i % 97) * 1e-4);
    }
  });
  pool.waitIdle();
  EXPECT_EQ(inconsistencies.load(), 0u);
}

TEST(LatencyRecorder, MergedReservoirPercentilesMatchPooledSamples) {
  // Merge-order regression (the striped rework): summary() must compute
  // p50/p95 with common::percentile over the POOLED per-stripe windows,
  // not by combining per-stripe percentiles. Four threads land on
  // (potentially) different stripes with disjoint sample ranges; as long
  // as no stripe window overflows, the pooled pane holds every sample
  // and the percentiles must match the reference exactly.
  LatencyRecorder rec(128);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 20;
  std::vector<double> all;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      all.push_back(static_cast<double>(t * 100 + i) * 1e-4);
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        rec.add(static_cast<double>(t * 100 + i) * 1e-4);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto s = rec.summary();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(s.p50Seconds, common::percentile(all, 50.0));
  EXPECT_DOUBLE_EQ(s.p95Seconds, common::percentile(all, 95.0));
  EXPECT_DOUBLE_EQ(s.maxSeconds, common::maxOf(all));
  EXPECT_NEAR(s.meanSeconds, common::mean(all), 1e-12);
}

// ---- service --------------------------------------------------------------

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

runtime::Task makeScaleTask(std::size_t n, int k) {
  static const runtime::CompiledKernel compiled =
      runtime::CompiledKernel::compile(kScaleSrc);
  auto in = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  auto out = std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
  return runtime::TaskBuilder(compiled, "scale")
      .global(n)
      .local(64)
      .arg(in)
      .arg(out)
      .arg(k)
      .build();
}

/// A service over mc2 with a decision-tree model trained on a small sweep
/// of scale tasks, plus the tasks themselves for traffic.
struct ServiceFixture {
  std::vector<runtime::Task> tasks;
  sim::MachineConfig machine = sim::makeMc2();
  std::unique_ptr<PartitionService> service;

  explicit ServiceFixture(ServiceConfig config = {}) {
    const runtime::PartitioningSpace space(machine.numDevices(),
                                           config.divisions);
    auto db = runtime::FeatureDatabase::withDefaultSchema(space.size());
    for (const std::size_t n : {1u << 12, 1u << 16, 1u << 20}) {
      for (const int k : {10, 2000}) {
        runtime::Task task = makeScaleTask(n, k);
        db.add(runtime::measureLaunch(task, machine, space,
                                      "n=" + std::to_string(n)));
        tasks.push_back(std::move(task));
      }
    }
    service = std::make_unique<PartitionService>(config);
    service->addMachine(
        machine, std::shared_ptr<const ml::Classifier>(
                     runtime::trainDeploymentModel(db, machine.name, "tree")));
  }

  LaunchRequest request(std::size_t t) const {
    LaunchRequest r;
    r.machine = machine.name;
    r.task = tasks[t % tasks.size()];
    return r;
  }
};

TEST(PartitionService, ServesAndMatchesUnbatchedPath) {
  ServiceFixture fx;
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    const auto expected =
        fx.service->predictLabel(fx.machine.name, fx.tasks[t]);
    const auto response = fx.service->call(fx.request(t));
    EXPECT_EQ(response.label, expected);
    EXPECT_FALSE(response.cacheHit);  // first sighting of each launch
    EXPECT_EQ(response.partitioning, fx.service->space(fx.machine.name)
                                         .at(response.label));
    EXPECT_GT(response.execution.makespan, 0.0);

    const auto again = fx.service->call(fx.request(t));
    EXPECT_TRUE(again.cacheHit);
    EXPECT_EQ(again.label, expected);
    EXPECT_DOUBLE_EQ(again.execution.makespan, response.execution.makespan);
  }
}

TEST(PartitionService, ConcurrentClientsGetConsistentDecisions) {
  ServiceConfig config;
  config.lanesPerMachine = 3;
  ServiceFixture fx(config);

  std::vector<std::size_t> expected;
  for (const auto& task : fx.tasks) {
    expected.push_back(fx.service->predictLabel(fx.machine.name, task));
  }

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequests = 50;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t r = 0; r < kRequests; ++r) {
        const std::size_t t = (c * kRequests + r) % fx.tasks.size();
        const auto response = fx.service->submit(fx.request(t)).get();
        if (response.label != expected[t]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const auto stats = fx.service->stats();
  EXPECT_EQ(stats.requestsSubmitted, kClients * kRequests);
  EXPECT_EQ(stats.requestsCompleted, kClients * kRequests);
  EXPECT_EQ(stats.requestsFailed, 0u);
  EXPECT_GT(stats.cacheHitRate, 0.5);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.cache.lookups);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.maxBatch, 1u);
  EXPECT_EQ(stats.latency.count, kClients * kRequests);
  EXPECT_LE(stats.latency.p50Seconds, stats.latency.p95Seconds);
  // Feedback deduplicates to the distinct launches.
  EXPECT_EQ(stats.feedbackRecords, fx.tasks.size());
  ASSERT_EQ(stats.machines.size(), 1u);
  EXPECT_EQ(stats.machines[0].requests, kClients * kRequests);
  EXPECT_GT(stats.machines[0].makespanSeconds, 0.0);
}

TEST(PartitionService, WarmHitsAreServedInline) {
  ServiceFixture fx;
  // Cold pass: every distinct launch misses and goes through the queue.
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    (void)fx.service->call(fx.request(t));
  }
  const auto cold = fx.service->stats();
  EXPECT_EQ(cold.requestsInline, 0u);
  EXPECT_GE(cold.batches, 1u);

  // Warm pass: every request hits the fingerprint cache and is served on
  // the calling thread — no new batches, inline counter tracks exactly.
  for (int round = 0; round < 3; ++round) {
    for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
      const auto r = fx.service->call(fx.request(t));
      EXPECT_TRUE(r.cacheHit);
    }
  }
  const auto warm = fx.service->stats();
  EXPECT_EQ(warm.requestsInline, 3 * fx.tasks.size());
  EXPECT_EQ(warm.batches, cold.batches);  // the queue never woke up
  EXPECT_EQ(warm.requestsCompleted, warm.requestsSubmitted);
  // Inline serving skips the feedback recorder; the cold pass already
  // recorded every distinct signature.
  EXPECT_EQ(warm.feedbackRecords, fx.tasks.size());
}

TEST(PartitionService, RetrainSwapsModelAndInvalidatesCache) {
  ServiceFixture fx;
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    (void)fx.service->call(fx.request(t));
  }
  const auto before = fx.service->stats();
  EXPECT_EQ(before.modelVersion, 0u);
  EXPECT_EQ(before.feedbackRecords, fx.tasks.size());

  const auto result = fx.service->retrain();
  EXPECT_EQ(result.machinesRetrained, 1u);
  EXPECT_EQ(result.recordsUsed, fx.tasks.size());
  EXPECT_EQ(result.modelVersion, 1u);

  // Post-retrain decisions must again equal the unbatched path through
  // the swapped-in model, and the first sighting of each launch must miss
  // the invalidated cache.
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    const auto response = fx.service->call(fx.request(t));
    EXPECT_FALSE(response.cacheHit);  // cache was invalidated
    EXPECT_EQ(response.modelVersion, result.modelVersion);
    EXPECT_EQ(response.label,
              fx.service->predictLabel(fx.machine.name, fx.tasks[t]));
  }
  const auto after = fx.service->stats();
  EXPECT_EQ(after.retrains, 1u);
  EXPECT_EQ(after.modelVersion, 1u);
  EXPECT_EQ(after.requestsFailed, 0u);
  EXPECT_EQ(after.cache.hits + after.cache.misses, after.cache.lookups);
}

TEST(PartitionService, RetrainUnderLiveTrafficDoesNotDeadlock) {
  ServiceConfig config;
  config.lanesPerMachine = 2;
  ServiceFixture fx(config);

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::size_t t = c;
      while (!stop.load()) {
        (void)fx.service->submit(fx.request(t++)).get();
      }
    });
  }
  for (int i = 0; i < 5; ++i) {
    (void)fx.service->retrain();
  }
  stop.store(true);
  for (auto& c : clients) c.join();
  fx.service->drain();

  const auto stats = fx.service->stats();
  EXPECT_EQ(stats.retrains, 5u);
  EXPECT_EQ(stats.modelVersion, 5u);
  EXPECT_EQ(stats.requestsCompleted, stats.requestsSubmitted);
  EXPECT_EQ(stats.requestsFailed, 0u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.cache.lookups);
}

TEST(PartitionService, ShutdownDrainsAndRejectsNewWork) {
  ServiceFixture fx;
  std::vector<std::future<LaunchResponse>> futures;
  for (std::size_t t = 0; t < 20; ++t) {
    futures.push_back(fx.service->submit(fx.request(t)));
  }
  fx.service->shutdown();
  for (auto& f : futures) {
    EXPECT_GT(f.get().execution.makespan, 0.0);  // all answered
  }
  EXPECT_THROW(fx.service->submit(fx.request(0)), Error);
  fx.service->shutdown();  // idempotent
  const auto stats = fx.service->stats();
  EXPECT_EQ(stats.requestsCompleted, 20u);
}

TEST(PartitionService, ShutdownRacesDrainLoopAndMixedTraffic) {
  // Callers mix warm hits (served inline on their own thread) with queued
  // misses (fresh sizes, answered by lane workers) while another thread
  // loops drain(); shutdown() then closes the gate mid-traffic. Every
  // submit either throws "submit after shutdown" or returns a future that
  // is already answered once shutdown() has returned.
  ServiceConfig config;
  config.lanesPerMachine = 2;
  ServiceFixture fx(config);
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    (void)fx.service->call(fx.request(t));  // warm every fixture launch
  }

  constexpr std::size_t kCallers = 3;
  std::atomic<bool> closed{false};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> unanswered{0};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> drains{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<std::future<LaunchResponse>> futures;
      for (std::size_t i = 0;; ++i) {
        LaunchRequest request = fx.request(c + i);
        if (i % 4 == 3) {
          // A size no fixture launch has: a miss the first time round.
          request.task =
              makeScaleTask(4096 + 64 * ((kCallers * i + c) % 2048), 10);
        }
        try {
          futures.push_back(fx.service->submit(std::move(request)));
        } catch (const Error& e) {
          if (std::string(e.what()).find("submit after shutdown") ==
              std::string::npos) {
            bad.fetch_add(1);
          }
          rejected.fetch_add(1);
          break;
        }
      }
      while (!closed.load()) std::this_thread::yield();
      for (auto& f : futures) {
        if (f.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          unanswered.fetch_add(1);
        } else if (!(f.get().execution.makespan > 0.0)) {
          bad.fetch_add(1);
        }
      }
      admitted.fetch_add(futures.size());
    });
  }
  std::thread drainer([&] {
    while (!closed.load()) {
      fx.service->drain();
      drains.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fx.service->shutdown();
  closed.store(true);
  for (auto& c : callers) c.join();
  drainer.join();

  EXPECT_EQ(unanswered.load(), 0u);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(rejected.load(), kCallers);
  EXPECT_GT(drains.load(), 0u);
  const auto stats = fx.service->stats();
  EXPECT_EQ(stats.requestsSubmitted, admitted.load() + fx.tasks.size());
  EXPECT_EQ(stats.requestsCompleted, stats.requestsSubmitted);
  EXPECT_EQ(stats.requestsFailed, 0u);
  EXPECT_GT(stats.requestsInline, 0u);
  EXPECT_GT(stats.batches, 0u);
}

TEST(PartitionService, RejectsUnknownMachineAndBadConfig) {
  ServiceFixture fx;
  LaunchRequest request;
  request.machine = "mc9";
  request.task = fx.tasks[0];
  EXPECT_THROW(fx.service->submit(std::move(request)), Error);
  EXPECT_THROW(fx.service->space("mc9"), Error);
  EXPECT_THROW(
      fx.service->addMachine(fx.machine, std::shared_ptr<ml::Classifier>()),
      Error);
  // Re-registering the same machine is rejected.
  EXPECT_THROW(fx.service->addMachine(
                   fx.machine, std::shared_ptr<const ml::Classifier>(
                                   ml::makeClassifier("mostfreq"))),
               Error);
  // Machines must be registered before traffic starts: the worker pool is
  // sized to the lanes that exist at the first submit().
  (void)fx.service->call(fx.request(0));
  EXPECT_THROW(fx.service->addMachine(
                   sim::makeMc1(), std::shared_ptr<const ml::Classifier>(
                                       ml::makeClassifier("mostfreq"))),
               Error);
}

TEST(PartitionService, StatsConcurrentWithAddMachineIsConsistent) {
  // Regression: feedback_ (and the machine map) used to be read by
  // stats()/trafficSnapshot() without machinesMutex_, racing the write in
  // addMachine(). The thread-safety annotation pass surfaced it; under
  // TSan this test is the watchdog. stats() must stay callable — and
  // internally consistent — while registration is still in flight.
  auto service = std::make_unique<PartitionService>();
  std::atomic<bool> stop{false};
  std::vector<std::thread> observers;
  for (int i = 0; i < 2; ++i) {
    observers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s = service->stats();
        ASSERT_LE(s.machines.size(), 2u);
        ASSERT_EQ(s.requestsSubmitted, 0u);
      }
    });
  }
  for (const auto& machine : {sim::makeMc2(), sim::makeMc1()}) {
    service->addMachine(machine, std::shared_ptr<const ml::Classifier>(
                                     ml::makeClassifier("mostfreq")));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : observers) t.join();
  EXPECT_EQ(service->stats().machines.size(), 2u);
}

TEST(PartitionService, InternTableOverflowDegradesToUncachedServing) {
  ServiceConfig config;
  config.internCapacity = 1;  // one (machine, program) pair, ever
  ServiceFixture fx(config);

  // A second machine whose (machine, program) pair cannot be interned.
  const sim::MachineConfig other = sim::makeMc1();
  const runtime::PartitioningSpace space(other.numDevices(),
                                         config.divisions);
  auto db = runtime::FeatureDatabase::withDefaultSchema(space.size());
  for (auto& task : fx.tasks) {
    db.add(runtime::measureLaunch(task, other, space, "sweep"));
  }
  fx.service->addMachine(other, std::shared_ptr<const ml::Classifier>(
                                    runtime::trainDeploymentModel(
                                        db, other.name, "tree")));
  const auto requestOn = [&](const sim::MachineConfig& m, std::size_t t) {
    LaunchRequest r;
    r.machine = m.name;
    r.task = fx.tasks[t % fx.tasks.size()];
    return r;
  };

  // mc2 claims the single intern slot and keeps its full fast path:
  // fingerprinted, cached, warm repeats hit.
  const auto cold = fx.service->call(requestOn(fx.machine, 0));
  EXPECT_EQ(cold.label,
            fx.service->predictLabel(fx.machine.name, fx.tasks[0]));
  EXPECT_TRUE(fx.service->call(requestOn(fx.machine, 0)).cacheHit);

  // Every launch on the overflow machine serves uncached: never a cache
  // hit (no fingerprint without a pair id), but the decision still equals
  // the pure model prediction — capacity pressure degrades speed, never
  // correctness.
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
      const auto r = fx.service->call(requestOn(other, t));
      EXPECT_FALSE(r.cacheHit);
      EXPECT_EQ(r.label, fx.service->predictLabel(other.name, fx.tasks[t]));
    }
  }

  const auto stats = fx.service->stats();
  EXPECT_EQ(stats.internedPairs, 1u);
  EXPECT_GE(stats.internRejections,
            static_cast<std::uint64_t>(kRounds * fx.tasks.size()));
  EXPECT_EQ(stats.requestsFailed, 0u);
}

TEST(PartitionService, RefinementNeverWorseThanTheModelBaseline) {
  ServiceConfig config;
  config.refine = true;
  config.refiner.exploreFraction = 0.4;
  config.refiner.seed = 11;
  ServiceFixture fx(config);

  // First sighting of every launch serves the pure model prediction (the
  // refiner must measure its baseline before probing anything).
  std::vector<double> baseline;
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    const auto r = fx.service->call(fx.request(t));
    EXPECT_FALSE(r.explored);
    EXPECT_FALSE(r.refined);
    EXPECT_EQ(r.label, fx.service->predictLabel(fx.machine.name, fx.tasks[t]));
    baseline.push_back(r.execution.makespan);
  }

  // Warm traffic: the refiner probes neighbors and adopts measured wins.
  for (std::size_t i = 0; i < 40 * fx.tasks.size(); ++i) {
    (void)fx.service->call(fx.request(i));
  }

  // Steady state: exploitation can only ever serve a label whose measured
  // time is <= the baseline's (wins need strict improvement).
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto r = fx.service->call(fx.request(t));
      if (r.explored) continue;  // probes pay the exploration tax
      EXPECT_LE(r.execution.makespan, baseline[t] * (1.0 + 1e-9))
          << "task " << t;
      break;
    }
  }

  const auto stats = fx.service->stats();
  EXPECT_EQ(stats.refiner.decisions,
            stats.requestsCompleted);  // every request went through refine
  EXPECT_EQ(stats.refiner.explorations + stats.refiner.exploitations +
                stats.refiner.untracked,
            stats.refiner.decisions);
  EXPECT_EQ(stats.refinedKeys, fx.tasks.size());
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.cache.lookups);
  EXPECT_LE(stats.cache.evictions, stats.cache.insertions);
  EXPECT_EQ(stats.requestsFailed, 0u);

  // Retrain decays the refiner back to the (new) model prediction.
  const auto result = fx.service->retrain();
  EXPECT_GE(result.modelVersion, 1u);
  for (std::size_t t = 0; t < fx.tasks.size(); ++t) {
    (void)fx.service->call(fx.request(t));
  }
  const auto after = fx.service->stats();
  EXPECT_GE(after.refiner.resets, 1u);
  EXPECT_EQ(after.cache.hits + after.cache.misses, after.cache.lookups);
  EXPECT_LE(after.cache.evictions, after.cache.insertions);
  ASSERT_EQ(after.machines.size(), 1u);
  EXPECT_EQ(after.machines[0].modelVersion, result.modelVersion);
}

TEST(PartitionService, FeedbackRecorderDeduplicates) {
  const auto machine = sim::makeMc2();
  const runtime::PartitioningSpace space(machine.numDevices(), 10);
  FeedbackRecorder recorder(space.size());
  const runtime::Task small = makeScaleTask(1 << 12, 10);
  const runtime::Task large = makeScaleTask(1 << 16, 10);

  EXPECT_TRUE(recorder.record(small, machine, space, "n=4096"));
  EXPECT_FALSE(recorder.record(small, machine, space, "n=4096"));
  EXPECT_TRUE(recorder.record(large, machine, space, "n=65536"));
  EXPECT_EQ(recorder.size(), 2u);

  const auto db = recorder.snapshot();
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db.records()[0].machine, machine.name);
  EXPECT_EQ(db.records()[0].times.size(), space.size());
}

// ---- admission breaker (load shedding) -------------------------------------

/// A config whose SLO is impossible (1 ns p99 target over a short
/// window), so every served request burns budget and the breaker's SLO
/// arm sees a breach as soon as minSamples have landed. evalEvery is
/// pushed out of reach: tests drive evaluations deterministically
/// through evaluateBreakerNow().
ServiceConfig overloadedConfig() {
  ServiceConfig config;
  config.slo.windowSeconds = 0.25;
  config.slo.subWindows = 2;
  config.slo.targetP99Seconds = 1e-9;
  config.slo.minSamples = 8;
  config.breaker.enabled = true;
  config.breaker.burnRateCeiling = 1.0;
  config.breaker.tripAfter = 2;
  config.breaker.clearAfter = 2;
  config.breaker.evalEvery = std::uint64_t{1} << 30;
  return config;
}

TEST(PartitionService, BreakerShedsUnderOverloadAndRecovers) {
  ServiceFixture fx(overloadedConfig());
  const std::string& machine = fx.machine.name;

  for (std::size_t i = 0; i < 32; ++i) {
    const auto response = fx.service->call(fx.request(i));
    EXPECT_FALSE(response.shed);  // breaker closed: everything serves
  }
  ASSERT_TRUE(fx.service->sloReport(machine).breached);

  // Hysteresis: one hot evaluation arms the trip streak, the second
  // opens the breaker.
  fx.service->evaluateBreakerNow(machine);
  EXPECT_FALSE(fx.service->breakerOpen(machine));
  fx.service->evaluateBreakerNow(machine);
  ASSERT_TRUE(fx.service->breakerOpen(machine));

  // Open breaker: the request is answered immediately as shed — not
  // decided, not executed, no latency recorded.
  const auto shed = fx.service->call(fx.request(0));
  EXPECT_TRUE(shed.shed);
  EXPECT_FALSE(shed.cacheHit);
  auto stats = fx.service->stats();
  EXPECT_EQ(stats.requestsShed, 1u);
  EXPECT_EQ(stats.breakerTrips, 1u);
  EXPECT_EQ(stats.requestsCompleted, stats.requestsSubmitted);

  // Shed responses record no latency, so the SLO window drains while the
  // breaker sheds; once the horizon passes, the breach clears and the
  // clear streak (again two evaluations) closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_FALSE(fx.service->sloReport(machine).breached);
  fx.service->evaluateBreakerNow(machine);
  EXPECT_TRUE(fx.service->breakerOpen(machine));  // hysteresis again
  fx.service->evaluateBreakerNow(machine);
  EXPECT_FALSE(fx.service->breakerOpen(machine));

  const auto served = fx.service->call(fx.request(0));
  EXPECT_FALSE(served.shed);
  stats = fx.service->stats();
  EXPECT_EQ(stats.requestsShed, 1u);    // shedding stopped
  EXPECT_EQ(stats.breakerTrips, 1u);    // no flapping
}

TEST(PartitionService, LoadShedHealthRuleEmitsOneBreachClearPair) {
  ServiceFixture fx(overloadedConfig());
  const std::string& machine = fx.machine.name;

  for (std::size_t i = 0; i < 32; ++i) (void)fx.service->call(fx.request(i));
  fx.service->evaluateBreakerNow(machine);
  fx.service->evaluateBreakerNow(machine);
  ASSERT_TRUE(fx.service->breakerOpen(machine));

  obs::HealthMonitor monitor;
  fx.service->registerHealthRules(monitor);
  (void)fx.service->call(fx.request(0));  // one shed while open

  // Sustained shedding: one breach event, then suppression.
  (void)monitor.evaluateOnce();
  (void)monitor.evaluateOnce();

  // Recovery: drain the window, close the breaker, and let the rule's
  // clear streak (clearAfter = 2) emit exactly one recovery event.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  fx.service->evaluateBreakerNow(machine);
  fx.service->evaluateBreakerNow(machine);
  ASSERT_FALSE(fx.service->breakerOpen(machine));
  (void)monitor.evaluateOnce();
  (void)monitor.evaluateOnce();

  std::size_t breaches = 0, clears = 0;
  for (const auto& event : monitor.events()) {
    if (event.rule.find("load_shed") == std::string::npos) continue;
    if (!event.cleared) {
      EXPECT_EQ(event.severity, obs::Severity::Critical);
    }
    event.cleared ? ++clears : ++breaches;
  }
  EXPECT_EQ(breaches, 1u);  // deduped: sustained shedding pages once
  EXPECT_EQ(clears, 1u);
}

}  // namespace
}  // namespace tp::serve
