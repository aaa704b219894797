// tp::adapt tests: refiner decision policy (baseline-first, epsilon
// probing, exploit-the-measured-best), win adoption with the improvement
// margin, neighborhood re-centering, version decay after retrain, key
// capacity bounds, and counter consistency under ThreadPool contention.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "adapt/refiner.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "runtime/partitioning.hpp"

namespace tp::adapt {
namespace {

RefineKey key(const std::string& program, double size = 1024.0) {
  RefineKey k;
  k.machine = "mc2";
  k.program = program;
  k.signature = {size, 64.0};
  return k;
}

/// A 2-device ladder: label i is the partitioning {i, 10-i}, so the
/// neighborhood of label i is {i-1, i+1} and hill-climbing is easy to
/// reason about.
const runtime::PartitioningSpace& ladder() {
  static const runtime::PartitioningSpace space(2, 10);
  return space;
}

TEST(Refiner, FirstDecisionServesTheBaseline) {
  RefinerConfig config;
  config.exploreFraction = 1.0;  // explore as aggressively as allowed
  Refiner refiner(config);
  // Until the baseline is measured there is nothing to compare a probe
  // against, so the first decision must exploit it — even at epsilon 1.
  const auto d = refiner.decide(key("p"), 0, 5, ladder());
  EXPECT_EQ(d.label, 5u);
  EXPECT_FALSE(d.explore);
  EXPECT_FALSE(d.refined);
}

TEST(Refiner, ProbesLeastMeasuredNeighborThenAdoptsWins) {
  RefinerConfig config;
  config.exploreFraction = 1.0;
  Refiner refiner(config);
  const auto k = key("p");

  (void)refiner.decide(k, 0, 5, ladder());
  (void)refiner.observe(k, 0, 5, 1.0, ladder());

  // With epsilon 1 every decision now probes; arms are {5, 4, 6} and the
  // probe cursor targets the least-measured arms (ties break randomly),
  // so the two unmeasured neighbors are each probed exactly once.
  const auto p1 = refiner.decide(k, 0, 5, ladder());
  ASSERT_TRUE(p1.explore);
  EXPECT_TRUE(p1.label == 4u || p1.label == 6u);
  const auto o1 = refiner.observe(k, 0, p1.label, 1.2, ladder());
  EXPECT_FALSE(o1.improved);  // worse than the baseline

  const auto p2 = refiner.decide(k, 0, 5, ladder());
  ASSERT_TRUE(p2.explore);
  EXPECT_TRUE(p2.label == 4u || p2.label == 6u);
  EXPECT_NE(p2.label, p1.label);  // least-measured: never the probed one
  const auto o2 = refiner.observe(k, 0, p2.label, 0.5, ladder());
  EXPECT_TRUE(o2.improved);  // measured win -> new incumbent
  EXPECT_EQ(o2.bestLabel, p2.label);
  EXPECT_DOUBLE_EQ(o2.bestSeconds, 0.5);

  const auto counters = refiner.counters();
  EXPECT_EQ(counters.wins, 1u);
  EXPECT_EQ(counters.decisions, 3u);
  EXPECT_EQ(counters.explorations, 2u);
  EXPECT_EQ(counters.exploitations, 1u);
  EXPECT_EQ(counters.observations, 3u);
}

TEST(Refiner, ExploitServesTheIncumbentAfterAWin) {
  RefinerConfig config;
  config.exploreFraction = 0.0;  // pure exploitation
  Refiner refiner(config);
  const auto k = key("p");
  (void)refiner.decide(k, 0, 5, ladder());
  (void)refiner.observe(k, 0, 5, 1.0, ladder());
  // Feed a win for a neighbor as if an earlier probe measured it.
  (void)refiner.observe(k, 0, 6, 0.4, ladder());

  const auto d = refiner.decide(k, 0, 5, ladder());
  EXPECT_EQ(d.label, 6u);
  EXPECT_FALSE(d.explore);
  EXPECT_TRUE(d.refined);
  const auto inc = refiner.incumbent(k, 0);
  EXPECT_TRUE(inc.tracked);
  EXPECT_EQ(inc.label, 6u);
  EXPECT_EQ(inc.armsMeasured, 2u);
}

TEST(Refiner, ImprovementMarginRejectsNoiseWins) {
  RefinerConfig config;
  config.exploreFraction = 0.0;
  config.minImprovement = 1e-2;
  Refiner refiner(config);
  const auto k = key("p");
  (void)refiner.decide(k, 0, 5, ladder());
  (void)refiner.observe(k, 0, 5, 1.0, ladder());
  // 0.5% better: inside the noise margin, must not unseat the baseline.
  const auto o = refiner.observe(k, 0, 6, 0.995, ladder());
  EXPECT_FALSE(o.improved);
  EXPECT_EQ(refiner.decide(k, 0, 5, ladder()).label, 5u);
  // 5% better: a real win.
  EXPECT_TRUE(refiner.observe(k, 0, 4, 0.95, ladder()).improved);
}

TEST(Refiner, RecentersTheNeighborhoodOnTheIncumbent) {
  RefinerConfig config;
  config.exploreFraction = 1.0;
  Refiner refiner(config);
  const auto k = key("p");
  (void)refiner.decide(k, 0, 5, ladder());
  (void)refiner.observe(k, 0, 5, 1.0, ladder());
  // Adopt 6: the arm set {5,4,6} re-centers and gains 7.
  (void)refiner.observe(k, 0, 6, 0.5, ladder());

  // Probe until label 7 (two steps from the original baseline) shows up.
  bool probed7 = false;
  for (int i = 0; i < 16 && !probed7; ++i) {
    const auto d = refiner.decide(k, 0, 5, ladder());
    probed7 = d.label == 7;
    (void)refiner.observe(k, 0, d.label, 2.0, ladder());
  }
  EXPECT_TRUE(probed7);
}

TEST(Refiner, HillClimbsToTheOptimumOfAMeasuredValley) {
  // Simulated cost valley with its floor at label 8; the model predicted
  // label 2. Driving decide/observe in a loop must walk the incumbent
  // down to 8 and keep steady-state exploitation there.
  RefinerConfig config;
  config.exploreFraction = 0.5;
  config.seed = 7;
  Refiner refiner(config);
  const auto k = key("valley");
  const auto cost = [](std::size_t label) {
    return 1.0 + std::fabs(static_cast<double>(label) - 8.0);
  };
  for (int i = 0; i < 300; ++i) {
    const auto d = refiner.decide(k, 0, 2, ladder());
    (void)refiner.observe(k, 0, d.label, cost(d.label), ladder());
  }
  const auto inc = refiner.incumbent(k, 0);
  ASSERT_TRUE(inc.tracked);
  EXPECT_EQ(inc.label, 8u);
  EXPECT_DOUBLE_EQ(inc.meanSeconds, cost(8));
  // Steady state: exploitation serves the optimum.
  RefinerConfig frozen = config;
  (void)frozen;
  const auto counters = refiner.counters();
  EXPECT_GE(counters.wins, 1u);
  EXPECT_EQ(counters.decisions, 300u);
  EXPECT_EQ(counters.explorations + counters.exploitations +
                counters.untracked,
            counters.decisions);
}

TEST(Refiner, VersionBumpDecaysBackToTheModelPrediction) {
  RefinerConfig config;
  config.exploreFraction = 0.0;
  Refiner refiner(config);
  const auto k = key("p");
  (void)refiner.decide(k, 0, 5, ladder());
  (void)refiner.observe(k, 0, 5, 1.0, ladder());
  (void)refiner.observe(k, 0, 6, 0.4, ladder());
  EXPECT_EQ(refiner.decide(k, 0, 5, ladder()).label, 6u);

  // Retrain bumped the version: the new model's prediction (3) rules and
  // the learned history is gone.
  const auto d = refiner.decide(k, 1, 3, ladder());
  EXPECT_EQ(d.label, 3u);
  EXPECT_FALSE(d.refined);
  EXPECT_EQ(refiner.counters().resets, 1u);
  EXPECT_FALSE(refiner.incumbent(k, 0).tracked);

  // A measurement still stamped with the old version is dropped.
  const auto o = refiner.observe(k, 0, 6, 0.1, ladder());
  EXPECT_FALSE(o.improved);
  EXPECT_GE(refiner.counters().staleObservations, 1u);
  EXPECT_EQ(refiner.decide(k, 1, 3, ladder()).label, 3u);
}

TEST(Refiner, LaggingOldVersionDecisionDoesNotResetNewerHistory) {
  RefinerConfig config;
  config.exploreFraction = 0.0;
  Refiner refiner(config);
  const auto k = key("p");
  // Post-retrain (v1) history with an adopted win.
  (void)refiner.decide(k, 1, 5, ladder());
  (void)refiner.observe(k, 1, 5, 1.0, ladder());
  (void)refiner.observe(k, 1, 6, 0.4, ladder());

  // A request stamped before the retrain (v0) arrives late: it must be
  // served its own baseline unrefined, NOT reset the entry backward.
  const auto lagging = refiner.decide(k, 0, 2, ladder());
  EXPECT_EQ(lagging.label, 2u);
  EXPECT_FALSE(lagging.explore);
  EXPECT_FALSE(lagging.refined);
  EXPECT_EQ(refiner.counters().resets, 0u);
  EXPECT_GE(refiner.counters().untracked, 1u);
  // The v1 incumbent survived.
  EXPECT_EQ(refiner.decide(k, 1, 5, ladder()).label, 6u);
}

TEST(Refiner, KeyCapacityBoundServesUntrackedBaseline) {
  RefinerConfig config;
  config.maxKeys = 2;
  config.numShards = 1;
  Refiner refiner(config);
  (void)refiner.decide(key("a"), 0, 1, ladder());
  (void)refiner.decide(key("b"), 0, 2, ladder());
  const auto d = refiner.decide(key("c"), 0, 3, ladder());
  EXPECT_EQ(d.label, 3u);
  EXPECT_FALSE(d.explore);
  EXPECT_FALSE(d.refined);
  EXPECT_EQ(refiner.trackedKeys(), 2u);
  EXPECT_EQ(refiner.counters().untracked, 1u);
}

TEST(Refiner, CapacityReclaimsStaleGenerationKeys) {
  // A full shard whose entries belong to a superseded model version must
  // make room for post-retrain traffic instead of refusing to track it.
  RefinerConfig config;
  config.maxKeys = 2;
  config.numShards = 1;
  Refiner refiner(config);
  (void)refiner.decide(key("a"), 0, 1, ladder());
  (void)refiner.decide(key("b"), 0, 2, ladder());
  EXPECT_EQ(refiner.trackedKeys(), 2u);

  // Version 1 traffic for a brand-new signature: the v0 entries are dead
  // weight and get swept, and the new key is tracked.
  const auto d = refiner.decide(key("c"), 1, 3, ladder());
  EXPECT_EQ(d.label, 3u);
  EXPECT_EQ(refiner.counters().untracked, 0u);
  EXPECT_EQ(refiner.trackedKeys(), 1u);
  EXPECT_TRUE(refiner.incumbent(key("c"), 1).tracked);
  EXPECT_FALSE(refiner.incumbent(key("a"), 0).tracked);
}

TEST(Refiner, ObservationForUnknownLabelIsIgnored) {
  Refiner refiner;
  const auto k = key("p");
  (void)refiner.decide(k, 0, 5, ladder());
  // Label 0 is far outside the tracked neighborhood of 5.
  const auto o = refiner.observe(k, 0, 0, 0.001, ladder());
  EXPECT_FALSE(o.improved);
  EXPECT_GE(refiner.counters().staleObservations, 1u);
  // And an observation for a key never decided is dropped too.
  EXPECT_FALSE(refiner.observe(key("q"), 0, 5, 1.0, ladder()).improved);
}

TEST(Refiner, CountersConsistentUnderContention) {
  RefinerConfig config;
  config.exploreFraction = 0.25;
  config.numShards = 4;
  Refiner refiner(config);
  common::ThreadPool pool(8);
  constexpr std::size_t kOps = 20000;
  constexpr std::size_t kKeys = 40;
  std::atomic<std::uint64_t> badLabels{0};

  pool.parallelFor(0, kOps, [&](std::size_t i) {
    const auto k = key(std::string("p").append(std::to_string(i % kKeys)));
    const std::size_t base = 2 + (i % kKeys) % 7;
    const auto d = refiner.decide(k, 0, base, ladder());
    if (d.label >= ladder().size()) badLabels.fetch_add(1);
    const double cost =
        1.0 + std::fabs(static_cast<double>(d.label) - 8.0) * 0.1;
    (void)refiner.observe(k, 0, d.label, cost, ladder());
  });
  pool.waitIdle();

  EXPECT_EQ(badLabels.load(), 0u);
  const auto c = refiner.counters();
  EXPECT_EQ(c.decisions, kOps);
  EXPECT_EQ(c.explorations + c.exploitations + c.untracked, c.decisions);
  EXPECT_EQ(c.observations + c.staleObservations, kOps);
  EXPECT_LE(refiner.trackedKeys(), kKeys);
}

// ---- export / merge (fleet gossip + snapshots) -----------------------------

/// Refine key("p") to a converged state: baseline 5 measured at 1.0,
/// neighbor 4 at 1.2, neighbor 6 at `winSeconds` and adopted, and the
/// re-centered neighbor 7 measured at 2.0 (so the incumbent's whole
/// neighborhood carries evidence — the search is finished).
void refineKey(Refiner& refiner, double winSeconds) {
  const auto k = key("p");
  (void)refiner.decide(k, 0, 5, ladder());
  (void)refiner.observe(k, 0, 5, 1.0, ladder());
  (void)refiner.observe(k, 0, 4, 1.2, ladder());
  (void)refiner.observe(k, 0, 6, winSeconds, ladder());
  (void)refiner.observe(k, 0, 7, 2.0, ladder());
}

TEST(Refiner, ExportsAdoptedWinsWithEvidence) {
  Refiner refiner;
  refineKey(refiner, 0.5);
  const auto wins = refiner.exportWins();
  ASSERT_EQ(wins.size(), 1u);
  const WinRecord& rec = wins[0];
  EXPECT_EQ(rec.key, key("p"));
  EXPECT_EQ(rec.modelVersion, 0u);
  EXPECT_EQ(rec.baseLabel, 5u);
  EXPECT_EQ(rec.incumbentLabel, 6u);
  EXPECT_DOUBLE_EQ(rec.incumbentMean, 0.5);
  // Every measured arm ships as evidence.
  ASSERT_EQ(rec.arms.size(), 4u);
  for (const WinArm& arm : rec.arms) EXPECT_GE(arm.count, 1u);

  // An unrefined key (incumbent == baseline) is not gossiped...
  Refiner unrefined;
  (void)unrefined.decide(key("q"), 0, 5, ladder());
  (void)unrefined.observe(key("q"), 0, 5, 1.0, ladder());
  EXPECT_TRUE(unrefined.exportWins(true).empty());
  // ...but is part of a full (snapshot) export.
  EXPECT_EQ(unrefined.exportWins(false).size(), 1u);
}

TEST(Refiner, MergeAdoptsRemoteWinWithoutReopeningSearch) {
  Refiner source;
  refineKey(source, 0.5);
  const auto wins = source.exportWins();

  RefinerConfig config;
  config.exploreFraction = 1.0;  // would probe on every warm decision...
  config.probeSamples = 1;       // ...but merged evidence fills the budget
  Refiner target(config);
  const auto result = target.mergeWins(wins, 0);
  EXPECT_EQ(result.adopted, 1u);
  EXPECT_EQ(result.merged(), 1u);

  const auto inc = target.incumbent(key("p"), 0);
  ASSERT_TRUE(inc.tracked);
  EXPECT_EQ(inc.label, 6u);
  EXPECT_DOUBLE_EQ(inc.meanSeconds, 0.5);

  // Decisions serve the merged incumbent and never probe: the remote
  // replica already measured this neighborhood.
  for (int i = 0; i < 32; ++i) {
    const auto d = target.decide(key("p"), 0, 5, ladder());
    EXPECT_FALSE(d.explore);
    EXPECT_TRUE(d.refined);
    EXPECT_EQ(d.label, 6u);
  }
  EXPECT_EQ(target.counters().explorations, 0u);
  EXPECT_EQ(target.counters().mergedWins, 1u);
}

TEST(Refiner, MergeIsIdempotentUnderAntiEntropy) {
  Refiner source;
  refineKey(source, 0.5);
  const auto wins = source.exportWins();
  Refiner target;
  EXPECT_EQ(target.mergeWins(wins, 0).adopted, 1u);
  // Re-offering the same state (anti-entropy rounds do) must not inflate
  // counts, shift means, or re-adopt.
  for (int round = 0; round < 5; ++round) {
    const auto result = target.mergeWins(wins, 0);
    EXPECT_EQ(result.adopted, 0u);
    EXPECT_EQ(result.updated, 1u);
  }
  const auto mergedBack = target.exportWins();
  ASSERT_EQ(mergedBack.size(), 1u);
  ASSERT_EQ(mergedBack[0].arms.size(), wins[0].arms.size());
  for (std::size_t a = 0; a < wins[0].arms.size(); ++a) {
    EXPECT_EQ(mergedBack[0].arms[a].count, wins[0].arms[a].count);
    EXPECT_DOUBLE_EQ(mergedBack[0].arms[a].meanSeconds,
                     wins[0].arms[a].meanSeconds);
  }
}

TEST(Refiner, MergeTiesBreakToTheLowerMeasuredMean) {
  // Local and remote measured the win arm equally often but disagree on
  // the mean: the lower (better) measurement wins the merge.
  Refiner local, remote;
  refineKey(local, 0.6);
  refineKey(remote, 0.5);
  const auto result = local.mergeWins(remote.exportWins(), 0);
  EXPECT_EQ(result.merged(), 1u);
  EXPECT_DOUBLE_EQ(local.incumbent(key("p"), 0).meanSeconds, 0.5);

  // And the reverse direction keeps the better local mean.
  Refiner better, worse;
  refineKey(better, 0.4);
  refineKey(worse, 0.5);
  (void)better.mergeWins(worse.exportWins(), 0);
  EXPECT_DOUBLE_EQ(better.incumbent(key("p"), 0).meanSeconds, 0.4);
}

TEST(Refiner, MergeRejectsStaleVersions) {
  Refiner source;
  refineKey(source, 0.5);
  auto wins = source.exportWins();
  Refiner target;
  // Fleet is already on generation 2: version-0 wins say nothing about
  // the current model's predictions.
  const auto result = target.mergeWins(wins, 2);
  EXPECT_EQ(result.stale, 1u);
  EXPECT_EQ(result.merged(), 0u);
  EXPECT_EQ(target.trackedKeys(), 0u);

  // A key that locally moved to a newer generation rejects older records
  // even when the caller's version matches the record.
  Refiner moved;
  (void)moved.decide(key("p"), 1, 5, ladder());
  EXPECT_EQ(moved.mergeWins(wins, 0).stale, 1u);
}

TEST(Refiner, MergeRespectsKeyCapacity) {
  RefinerConfig config;
  config.maxKeys = 2;
  config.numShards = 1;
  Refiner target(config);
  Refiner a;
  refineKey(a, 0.5);
  auto wins = a.exportWins();
  // Three distinct keys into a 2-key refiner: the overflow is dropped.
  WinRecord second = wins[0];
  second.key.program = "p2";
  WinRecord third = wins[0];
  third.key.program = "p3";
  wins.push_back(second);
  wins.push_back(third);
  const auto result = target.mergeWins(wins, 0);
  EXPECT_EQ(result.merged(), 2u);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(target.trackedKeys(), 2u);
}

TEST(Refiner, ProbeBudgetStopsExplorationOnceConverged) {
  RefinerConfig config;
  config.exploreFraction = 1.0;
  config.probeSamples = 2;
  Refiner refiner(config);
  const auto k = key("p");
  (void)refiner.decide(k, 0, 5, ladder());
  (void)refiner.observe(k, 0, 5, 1.0, ladder());
  // Arms {5, 4, 6}: with epsilon 1 every decision probes until each arm
  // holds probeSamples measurements (no win: 5 stays incumbent).
  std::size_t probes = 0;
  for (int i = 0; i < 64; ++i) {
    const auto d = refiner.decide(k, 0, 5, ladder());
    if (!d.explore) break;
    ++probes;
    (void)refiner.observe(k, 0, d.label, d.label == 5 ? 1.0 : 2.0, ladder());
  }
  // 5 needs one more sample, 4 and 6 need two each.
  EXPECT_EQ(probes, 5u);
  // Converged: pure exploitation from here on.
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(refiner.decide(k, 0, 5, ladder()).explore);
  }
}

TEST(Refiner, RejectsBadConfig) {
  RefinerConfig config;
  config.exploreFraction = 1.5;
  EXPECT_THROW(Refiner{config}, Error);
  config = {};
  config.numShards = 0;
  EXPECT_THROW(Refiner{config}, Error);
  config = {};
  config.maxArms = 1;
  EXPECT_THROW(Refiner{config}, Error);
  config = {};
  config.minSamples = 0;
  EXPECT_THROW(Refiner{config}, Error);
  config = {};
  // Probe budget below minSamples: arms stop probing before any could
  // ever be elected — all exploration cost, zero possible wins.
  config.minSamples = 2;
  config.probeSamples = 1;
  EXPECT_THROW(Refiner{config}, Error);
}

}  // namespace
}  // namespace tp::adapt
