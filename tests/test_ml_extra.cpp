// Deeper learner coverage: hyperparameter behaviour, degenerate inputs,
// two-stage wiring against the real partitioning space, and agreement
// properties between scores() and predict().

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "ml/classifier.hpp"
#include "ml/crossval.hpp"
#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/mlp.hpp"
#include "ml/random_forest.hpp"
#include "ml/two_stage.hpp"
#include "runtime/partitioning.hpp"

namespace tp::ml {
namespace {

Dataset twoMoons(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset d;
  d.featureNames = {"x", "y"};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.uniform(0.0, 3.14159);
    const int cls = static_cast<int>(rng.below(2));
    const double cx = cls == 0 ? std::cos(t) : 1.0 - std::cos(t);
    const double cy = cls == 0 ? std::sin(t) : 0.5 - std::sin(t);
    d.add({cx + rng.gaussian(0, 0.08), cy + rng.gaussian(0, 0.08)}, cls,
          std::string("g").append(std::to_string(i % 5)));
  }
  d.numClasses = 2;
  return d;
}

double accuracyOn(const Classifier& model, const Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (model.predict(data.X[i]) == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

TEST(DecisionTreeExtra, NonlinearBoundary) {
  const Dataset train = twoMoons(400, 3);
  const Dataset test = twoMoons(200, 77);
  DecisionTree tree(TreeOptions{.maxDepth = 12}, 42);
  tree.train(train);
  EXPECT_GE(accuracyOn(tree, test), 0.9);
}

TEST(DecisionTreeExtra, MinSamplesLeafLimitsGrowth) {
  const Dataset train = twoMoons(400, 5);
  DecisionTree loose(TreeOptions{.maxDepth = 30, .minSamplesLeaf = 1}, 42);
  DecisionTree tight(TreeOptions{.maxDepth = 30, .minSamplesLeaf = 40}, 42);
  loose.train(train);
  tight.train(train);
  EXPECT_GT(loose.nodeCount(), tight.nodeCount());
}

TEST(DecisionTreeExtra, SingleSampleTrainsToLeaf) {
  Dataset d;
  d.featureNames = {"x"};
  d.add({1.0}, 3, "g");
  d.numClasses = 5;
  DecisionTree tree;
  tree.train(d);
  EXPECT_EQ(tree.predict({-100.0}), 3);
  EXPECT_EQ(tree.nodeCount(), 1u);
}

TEST(DecisionTreeExtra, DuplicateFeatureValuesNoInfiniteSplit) {
  // All samples identical features, different labels: must become one leaf.
  Dataset d;
  d.featureNames = {"x", "y"};
  for (int i = 0; i < 20; ++i) d.add({1.0, 2.0}, i % 3, "g");
  d.numClasses = 3;
  DecisionTree tree;
  tree.train(d);
  EXPECT_EQ(tree.nodeCount(), 1u);
}

class ForestSizes : public ::testing::TestWithParam<int> {};

TEST_P(ForestSizes, AccuracyStabilizesWithTrees) {
  const Dataset train = twoMoons(300, 9);
  const Dataset test = twoMoons(150, 33);
  RandomForest forest(ForestOptions{.numTrees = GetParam()}, 42);
  forest.train(train);
  EXPECT_GE(accuracyOn(forest, test), GetParam() >= 16 ? 0.9 : 0.8);
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, ForestSizes,
                         ::testing::Values(1, 4, 16, 64));

TEST(ForestExtra, ScoresArgmaxMatchesPredict) {
  const Dataset train = twoMoons(200, 11);
  RandomForest forest(ForestOptions{.numTrees = 32}, 42);
  forest.train(train);
  common::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x = {rng.uniform(-2, 3), rng.uniform(-2, 2)};
    const auto s = forest.scores(x);
    const auto argmax = static_cast<int>(
        std::max_element(s.begin(), s.end()) - s.begin());
    EXPECT_EQ(argmax, forest.predict(x));
  }
}

TEST(ForestExtra, FixedFeaturesPerSplitRespected) {
  const Dataset train = twoMoons(200, 13);
  RandomForest forest(ForestOptions{.numTrees = 8, .featuresPerSplit = 1},
                      42);
  forest.train(train);  // must not crash and still learn something
  EXPECT_GE(accuracyOn(forest, train), 0.8);
}

class MlpShapes : public ::testing::TestWithParam<std::string> {};

TEST_P(MlpShapes, LearnsMoons) {
  auto model = makeClassifier("mlp:" + GetParam(), 42);
  const Dataset train = twoMoons(400, 17);
  model->train(train);
  EXPECT_GE(accuracyOn(*model, train), 0.9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(HiddenLayers, MlpShapes,
                         ::testing::Values("8", "32", "16,16", "32,16,8"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (auto& c : n) {
                             if (c == ',') c = '_';
                           }
                           return "layers_" + n;
                         });

TEST(MlpExtra, SoftmaxScoresSumToOne) {
  MlpClassifier mlp(MlpOptions{.hiddenLayers = {8}, .epochs = 50}, 42);
  mlp.train(twoMoons(100, 19));
  const auto s = mlp.scores({0.5, 0.5});
  double sum = 0.0;
  for (const double v : s) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

class KnnK : public ::testing::TestWithParam<int> {};

TEST_P(KnnK, AllKValuesWork) {
  KnnClassifier knn(GetParam());
  const Dataset train = twoMoons(200, 23);
  knn.train(train);
  EXPECT_GE(accuracyOn(knn, train), GetParam() <= 9 ? 0.9 : 0.75);
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnK, ::testing::Values(1, 3, 5, 9, 25, 999));

TEST(TwoStageExtra, UsesRealPartitioningFamilies) {
  // Wire the two-stage model exactly as the runtime does: families come
  // from the 66-way partitioning space.
  const runtime::PartitioningSpace space(3, 10);
  const auto families = space.familyLabels();

  // Synthetic launches: small → CPU-only (label cpuIdx), large → GPU-mixed.
  common::Rng rng(29);
  Dataset d;
  d.featureNames = {"log_size"};
  const int cpuLabel = static_cast<int>(space.cpuOnlyIndex());
  const int mixedLabel = static_cast<int>(space.indexOf({{2, 4, 4}, 10}));
  for (int i = 0; i < 200; ++i) {
    const double logSize = rng.uniform(8.0, 24.0);
    d.add({logSize}, logSize < 16.0 ? cpuLabel : mixedLabel,
          std::string("p").append(std::to_string(i % 6)));
  }
  d.numClasses = static_cast<int>(space.size());

  TwoStageClassifier model(
      families, [] { return makeClassifier("tree", 3); },
      [] { return makeClassifier("tree", 4); });
  model.train(d);
  EXPECT_EQ(model.predict({10.0}), cpuLabel);
  EXPECT_EQ(model.predict({22.0}), mixedLabel);
}

TEST(TwoStageExtra, UnseenFamilyFallsBackToValidLabel) {
  // Train with labels from only one family; predictions must still be
  // legal labels of whatever family stage 1 outputs.
  TwoStageClassifier model(
      {0, 0, 1, 1}, [] { return makeClassifier("mostfreq"); },
      [] { return makeClassifier("mostfreq"); });
  Dataset d;
  d.featureNames = {"x"};
  for (int i = 0; i < 10; ++i) d.add({static_cast<double>(i)}, 0, "g");
  d.numClasses = 4;
  model.train(d);
  const int p = model.predict({5.0});
  EXPECT_GE(p, 0);
  EXPECT_LT(p, 4);
}

TEST(CrossValExtra, GroupsNeverLeakIntoTraining) {
  // A feature that uniquely identifies the group makes within-group
  // prediction trivial; LOGO must NOT benefit from it, k-fold does.
  common::Rng rng(31);
  Dataset d;
  d.featureNames = {"group_id", "noise"};
  for (int g = 0; g < 5; ++g) {
    for (int i = 0; i < 30; ++i) {
      // Label == group id; the only informative feature is the group id.
      d.add({static_cast<double>(g), rng.uniform()}, g,
            std::string("g").append(std::to_string(g)));
    }
  }
  d.numClasses = 5;
  const auto factory = [] { return makeClassifier("tree"); };
  const auto kfold = kFoldCrossVal(d, 5, factory);
  const auto logo = leaveOneGroupOut(d, factory);
  EXPECT_GE(kfold.accuracy, 0.95);
  EXPECT_LE(logo.accuracy, 0.4);  // held-out group id was never seen
}

TEST(FactoryExtra, SeedChangesStochasticModels) {
  const Dataset train = twoMoons(150, 37);
  auto a = makeClassifier("forest:16", 1);
  auto b = makeClassifier("forest:16", 2);
  a->train(train);
  b->train(train);
  // Different seeds should disagree somewhere on a noisy boundary.
  common::Rng rng(41);
  int disagreements = 0;
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> x = {rng.uniform(-2, 3), rng.uniform(-2, 2)};
    if (a->predict(x) != b->predict(x)) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

}  // namespace
}  // namespace tp::ml
