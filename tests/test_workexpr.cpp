// Unit + property tests for the symbolic work-expression polynomials.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "features/compiled_features.hpp"
#include "ir/workexpr.hpp"

namespace tp::ir {
namespace {

TEST(WorkExpr, ConstantBasics) {
  const WorkExpr c = WorkExpr::constant(5.0);
  EXPECT_TRUE(c.isConstant());
  EXPECT_FALSE(c.isZero());
  EXPECT_DOUBLE_EQ(c.constantTerm(), 5.0);
  EXPECT_DOUBLE_EQ(c.eval({}), 5.0);
  EXPECT_EQ(c.degree(), 0);
}

TEST(WorkExpr, ZeroIsCanonical) {
  const WorkExpr z = WorkExpr::constant(0.0);
  EXPECT_TRUE(z.isZero());
  const WorkExpr alsoZero =
      WorkExpr::variable("N") - WorkExpr::variable("N");
  EXPECT_TRUE(alsoZero.isZero());
  EXPECT_EQ(z, alsoZero);
}

TEST(WorkExpr, VariableEvaluation) {
  const WorkExpr n = WorkExpr::variable("N");
  EXPECT_FALSE(n.isConstant());
  EXPECT_DOUBLE_EQ(n.eval({{"N", 42.0}}), 42.0);
  // Unknown variables fall back to the default value.
  EXPECT_DOUBLE_EQ(n.eval({}, 7.0), 7.0);
}

TEST(WorkExpr, PolynomialArithmetic) {
  const WorkExpr n = WorkExpr::variable("N");
  const WorkExpr k = WorkExpr::variable("K");
  const WorkExpr e = (n * k) * 2.0 + n + WorkExpr::constant(3.0);
  const std::map<std::string, double> bind = {{"N", 4.0}, {"K", 5.0}};
  EXPECT_DOUBLE_EQ(e.eval(bind), 2 * 4 * 5 + 4 + 3);
  EXPECT_EQ(e.degree(), 2);
  EXPECT_EQ(e.degreeIn("N"), 1);
  EXPECT_EQ(e.degreeIn("K"), 1);
  EXPECT_EQ(e.degreeIn("M"), 0);
}

TEST(WorkExpr, PowersViaRepeatedMultiply) {
  const WorkExpr n = WorkExpr::variable("N");
  const WorkExpr n3 = n * n * n;
  EXPECT_EQ(n3.degree(), 3);
  EXPECT_EQ(n3.degreeIn("N"), 3);
  EXPECT_DOUBLE_EQ(n3.eval({{"N", 3.0}}), 27.0);
}

TEST(WorkExpr, CoefficientExtraction) {
  // 3*g*K + 2*g + 5*K + 7, linear in g.
  const WorkExpr g = WorkExpr::variable("g");
  const WorkExpr k = WorkExpr::variable("K");
  const WorkExpr e =
      g * k * 3.0 + g * 2.0 + k * 5.0 + WorkExpr::constant(7.0);
  const WorkExpr coeff = e.coefficientOf("g");  // 3*K + 2
  EXPECT_DOUBLE_EQ(coeff.eval({{"K", 10.0}}), 32.0);
  const WorkExpr rest = e.without("g");  // 5*K + 7
  EXPECT_DOUBLE_EQ(rest.eval({{"K", 10.0}}), 57.0);
  EXPECT_TRUE(e.contains("g"));
  EXPECT_FALSE(rest.contains("g"));
}

TEST(WorkExpr, CoefficientOfQuadraticTermExcluded) {
  const WorkExpr g = WorkExpr::variable("g");
  const WorkExpr e = g * g * 4.0 + g * 3.0;  // 4g² + 3g
  EXPECT_EQ(e.degreeIn("g"), 2);
  // coefficientOf only collects degree-exactly-1 terms.
  EXPECT_DOUBLE_EQ(e.coefficientOf("g").eval({}), 3.0);
}

TEST(WorkExpr, ToStringDeterministic) {
  const WorkExpr e =
      WorkExpr::variable("K") * 2.0 + WorkExpr::constant(3.0);
  EXPECT_EQ(e.toString(), "3 + 2*K");
  EXPECT_EQ(WorkExpr{}.toString(), "0");
}

TEST(WorkExpr, ParametersSorted) {
  const WorkExpr e = WorkExpr::variable("z") + WorkExpr::variable("a") *
                                                   WorkExpr::variable("m");
  const auto params = e.parameters();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0], "a");
  EXPECT_EQ(params[1], "m");
  EXPECT_EQ(params[2], "z");
}

TEST(SlotProgram, SlotsAreTheSortedUnionOfParameters) {
  const WorkExpr a = WorkExpr::variable("N") * WorkExpr::variable("K");
  const WorkExpr b = WorkExpr::variable("M") + WorkExpr::constant(2.0);
  const SlotProgram prog({a, b, WorkExpr{}});
  EXPECT_EQ(prog.numExprs(), 3u);
  EXPECT_EQ(prog.numSlots(), 3u);
  EXPECT_EQ(prog.slotOf("K"), 0u);
  EXPECT_EQ(prog.slotOf("M"), 1u);
  EXPECT_EQ(prog.slotOf("N"), 2u);
  EXPECT_EQ(prog.slotOf("Q"), SlotProgram::npos);
}

TEST(SlotProgram, UnboundParametersTakeTheDefault) {
  const WorkExpr e = WorkExpr::variable("N") * 3.0 + WorkExpr::variable("K");
  const SlotProgram prog({e});
  std::vector<double> slots(prog.numSlots());
  // Only N is bound; K falls back to 16, like WorkExpr::eval().
  prog.bind({{"N", 5.0}, {"unrelated", 7.0}}, slots);
  EXPECT_EQ(slots, (std::vector<double>{16.0, 5.0}));
  EXPECT_EQ(prog.eval(0, slots), e.eval({{"N", 5.0}}));
  EXPECT_EQ(prog.eval(0, slots), 31.0);
  prog.bind({}, slots, 2.0);
  EXPECT_EQ(prog.eval(0, slots), e.eval({}, 2.0));
}

TEST(SlotProgram, GlobalSizeOverridesASizeBindingOfTheSameName) {
  features::KernelFeatures f;
  f.floatOps = WorkExpr::variable(features::kGlobalSizeParam) * 2.0 +
               WorkExpr::variable("N");
  f.intOps = WorkExpr::variable("unbound");
  const features::CompiledFeatures compiled(f);
  // get_global_size wins over a stale size binding of the same name, as
  // in runtime::Task::fullBindings().
  const features::WorkCounts c = compiled.counts(
      {{features::kGlobalSizeParam, 1.0}, {"N", 3.0}}, /*globalSize=*/100);
  EXPECT_EQ(c.floatOps, 203.0);
  EXPECT_EQ(c.intOps, 16.0);
  EXPECT_EQ(c.globalBytes, 0.0);
}

TEST(SlotProgram, CountsClampNegativeWorkToZero) {
  features::KernelFeatures f;
  f.branches = WorkExpr::variable("N") - WorkExpr::constant(4.0);
  const features::CompiledFeatures compiled(f);
  EXPECT_EQ(compiled.counts({{"N", 1.0}}, 64).branches, 0.0);
  EXPECT_EQ(compiled.counts({{"N", 9.0}}, 64).branches, 5.0);
}

// Property: the compiled program performs WorkExpr::eval()'s exact
// floating-point operations, so results agree bit for bit.
class SlotProgramProperty : public ::testing::TestWithParam<int> {};

TEST_P(SlotProgramProperty, EvalIsBitIdenticalToWorkExprEval) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const char* vars[] = {"N", "K", "M", "__global_size_0", "__unknown_loop"};
  std::vector<WorkExpr> exprs;
  for (int x = 0; x < 9; ++x) {
    WorkExpr e = WorkExpr::constant(rng.uniform(-3.0, 3.0));
    for (int t = 0; t < 4; ++t) {
      WorkExpr term = WorkExpr::constant(rng.uniform(-2.0, 2.0));
      for (int f = 0; f < static_cast<int>(rng.below(4)); ++f) {
        term = term * WorkExpr::variable(vars[rng.below(5)]);
      }
      e += term;
    }
    exprs.push_back(e);
  }
  std::map<std::string, double> bind;
  for (const char* v : vars) {
    if (rng.below(3) != 0) bind[v] = rng.uniform(0.1, 5000.0);
  }
  const SlotProgram prog(exprs);
  std::vector<double> slots(prog.numSlots());
  prog.bind(bind, slots);
  for (std::size_t x = 0; x < exprs.size(); ++x) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(prog.eval(x, slots)),
              std::bit_cast<std::uint64_t>(exprs[x].eval(bind)))
        << exprs[x].toString();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SlotProgramProperty,
                         ::testing::Range(0, 50));

// Property: ring axioms hold under random evaluation.
class WorkExprProperty : public ::testing::TestWithParam<int> {};

TEST_P(WorkExprProperty, DistributivityAndCommutativity) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto randomExpr = [&rng]() {
    const char* vars[] = {"N", "K", "M"};
    WorkExpr e = WorkExpr::constant(rng.uniform(-3.0, 3.0));
    for (int t = 0; t < 3; ++t) {
      WorkExpr term = WorkExpr::constant(rng.uniform(-2.0, 2.0));
      for (int f = 0; f < static_cast<int>(rng.below(3)); ++f) {
        term = term * WorkExpr::variable(vars[rng.below(3)]);
      }
      e += term;
    }
    return e;
  };
  const WorkExpr a = randomExpr();
  const WorkExpr b = randomExpr();
  const WorkExpr c = randomExpr();
  const std::map<std::string, double> bind = {
      {"N", rng.uniform(0.5, 10.0)},
      {"K", rng.uniform(0.5, 10.0)},
      {"M", rng.uniform(0.5, 10.0)},
  };
  const double lhs = (a * (b + c)).eval(bind);
  const double rhs = (a * b + a * c).eval(bind);
  EXPECT_NEAR(lhs, rhs, 1e-6 * (1.0 + std::fabs(lhs)));
  EXPECT_NEAR((a * b).eval(bind), (b * a).eval(bind),
              1e-6 * (1.0 + std::fabs(lhs)));
  EXPECT_NEAR((a + b).eval(bind), (b + a).eval(bind),
              1e-6 * (1.0 + std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WorkExprProperty,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace tp::ir
