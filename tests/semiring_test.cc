#include <gtest/gtest.h>

#include "util/check.h"

#include <cmath>

#include "semiring/objectives.h"
#include "semiring/semiring.h"
#include "semiring/sql_gen.h"
#include "util/rng.h"

namespace joinboost {
namespace semiring {
namespace {

class SemiringAxiomsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemiringAxiomsTest, VarianceSemiringAxioms) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    VarianceElem a = VarianceElem::Lift(rng.NextGaussian() * 10);
    VarianceElem b = VarianceElem::Lift(rng.NextGaussian() * 10);
    VarianceElem c = VarianceElem::Lift(rng.NextGaussian() * 10);
    // ⊕ commutative/associative with zero (associativity up to fp error).
    EXPECT_EQ(a + b, b + a);
    VarianceElem l = (a + b) + c;
    VarianceElem r = a + (b + c);
    EXPECT_NEAR(l.s, r.s, 1e-9 * std::max(1.0, std::fabs(r.s)));
    EXPECT_NEAR(l.q, r.q, 1e-9 * std::max(1.0, std::fabs(r.q)));
    EXPECT_EQ(a + VarianceElem::Zero(), a);
    // ⊗ commutative with unit, annihilated by zero.
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * VarianceElem::One(), a);
    EXPECT_EQ(a * VarianceElem::Zero(), VarianceElem::Zero());
    // distributivity a⊗(b⊕c) = a⊗b ⊕ a⊗c.
    VarianceElem lhs = a * (b + c);
    VarianceElem rhs = a * b + a * c;
    EXPECT_NEAR(lhs.c, rhs.c, 1e-9);
    EXPECT_NEAR(lhs.s, rhs.s, 1e-9 * std::max(1.0, std::fabs(rhs.s)));
    EXPECT_NEAR(lhs.q, rhs.q, 1e-9 * std::max(1.0, std::fabs(rhs.q)));
  }
}

TEST_P(SemiringAxiomsTest, AdditionToMultiplicationPreserving) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 100; ++trial) {
    double a = rng.NextGaussian() * 100;
    double b = rng.NextGaussian() * 100;
    EXPECT_TRUE(VarianceAddToMulHolds(a, b));
  }
  // The concrete identity from §4.2: lift(y−p) = lift(y) ⊗ lift(−p).
  double y = 3.5, p = 1.25;
  VarianceElem lhs = VarianceElem::Lift(y - p);
  VarianceElem rhs = VarianceElem::Lift(y) * VarianceElem::Lift(-p);
  EXPECT_NEAR(lhs.q, rhs.q, 1e-12);
}

TEST_P(SemiringAxiomsTest, GradientSemiringMatchesVarianceCs) {
  // The gradient semi-ring is structurally the (c,s) slice of the variance
  // semi-ring with h in the count role.
  Rng rng(GetParam() ^ 0xF00D);
  for (int trial = 0; trial < 50; ++trial) {
    double g1 = rng.NextGaussian(), h1 = rng.NextDouble() + 0.1;
    double g2 = rng.NextGaussian(), h2 = rng.NextDouble() + 0.1;
    GradientElem a = GradientElem::Lift(g1, h1);
    GradientElem b = GradientElem::Lift(g2, h2);
    GradientElem prod = a * b;
    EXPECT_NEAR(prod.h, h1 * h2, 1e-12);
    EXPECT_NEAR(prod.g, g1 * h2 + g2 * h1, 1e-12);
    GradientElem sum = a + b;
    EXPECT_NEAR(sum.g, g1 + g2, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiringAxiomsTest,
                         ::testing::Values(1, 2, 3, 99));

TEST(SemiringTest, VarianceStatistic) {
  // Example 1 from the paper: (C,S,Q) = (8,16,36) => variance 4.
  VarianceElem e{8, 16, 36};
  EXPECT_DOUBLE_EQ(e.Variance(), 4.0);
}

TEST(SemiringTest, ClassCountGiniAndEntropy) {
  ClassCountElem pure = ClassCountElem::Lift(3, 1);
  EXPECT_DOUBLE_EQ(pure.Gini(), 0.0);
  EXPECT_DOUBLE_EQ(pure.Entropy(), 0.0);

  ClassCountElem even{4, {2, 2, 0}};
  EXPECT_DOUBLE_EQ(even.Gini(), 0.5);
  EXPECT_DOUBLE_EQ(even.Entropy(), 1.0);

  // A perfectly separating split removes all impurity.
  ClassCountElem total{4, {2, 2, 0}};
  ClassCountElem sel{2, {2, 0, 0}};
  EXPECT_DOUBLE_EQ(GiniReduction(total, sel), 0.5);
  EXPECT_DOUBLE_EQ(EntropyReduction(total, sel), 1.0);
  EXPECT_GT(ChiSquare(total, sel), 0.0);
}

TEST(SemiringTest, VarianceReductionFormula) {
  // Splitting {0,0,10,10} into {0,0} and {10,10} removes all variance.
  double red = VarianceReduction(4, 20, 2, 0);
  // -S²/C + Sσ²/Cσ + (S−Sσ)²/(C−Cσ) = -100 + 0 + 200 = 100 = C·var.
  EXPECT_DOUBLE_EQ(red, 100.0);
  // Null split yields zero reduction.
  EXPECT_NEAR(VarianceReduction(4, 20, 2, 10), 0.0, 1e-12);
}

TEST(SemiringTest, GradientGainRegularization) {
  // λ shrinks the gain; α subtracts the per-leaf penalty.
  double g0 = GradientGain(10, 10, 8, 2, 0, 0);
  double g_reg = GradientGain(10, 10, 8, 2, 5.0, 0);
  double g_alpha = GradientGain(10, 10, 8, 2, 0, 1.0);
  EXPECT_GT(g0, g_reg);
  EXPECT_DOUBLE_EQ(g_alpha, g0 - 1.0);
}

TEST(SemiringSqlGenTest, ProductExpressions) {
  SqlOperand r{"r", "c", "s", "q"};
  SqlOperand m{"m", "c", "s", "q"};
  SqlOperand identity{"t", "", "", ""};
  EXPECT_EQ(VarianceSqlGen::MulC({r, m}), "r.c * m.c");
  EXPECT_EQ(VarianceSqlGen::MulS({r, m}), "r.s * m.c + m.s * r.c");
  EXPECT_EQ(VarianceSqlGen::MulQ({r, m}),
            "r.q * m.c + m.q * r.c + 2 * r.s * m.s");
  // Identity operands drop out entirely (Appendix D.2).
  EXPECT_EQ(VarianceSqlGen::MulC({r, identity}), "r.c");
  EXPECT_EQ(VarianceSqlGen::MulC({identity}), "1");
  EXPECT_EQ(VarianceSqlGen::MulS({identity}), "0");
}

TEST(SemiringSqlGenTest, ThreeOperandQuadratic) {
  SqlOperand a{"a", "c", "s", "q"};
  SqlOperand b{"b", "c", "s", "q"};
  SqlOperand c{"c3", "c", "s", "q"};
  std::string q = VarianceSqlGen::MulQ({a, b, c});
  // Three q-terms and three cross s-terms.
  EXPECT_NE(q.find("a.q * b.c * c3.c"), std::string::npos);
  EXPECT_NE(q.find("2 * a.s * b.s * c3.c"), std::string::npos);
  EXPECT_NE(q.find("2 * b.s * c3.s * a.c"), std::string::npos);
}

// The operand shapes the Factorizer builds. Each expected string is the SQL
// its message and absorption queries emit for that shape.
TEST(SemiringSqlGenTest, FactWithoutCountColumnTimesMessage) {
  SqlOperand f{"f", "", "s", "q"};  // implicit count 1
  SqlOperand m{"m", "c", "s", "q"};
  EXPECT_EQ(VarianceSqlGen::MulC({f, m}), "m.c");
  EXPECT_EQ(VarianceSqlGen::MulS({f, m}), "f.s * m.c + m.s");
  EXPECT_EQ(VarianceSqlGen::MulQ({f, m}), "f.q * m.c + m.q + 2 * f.s * m.s");
  // A message without s (every relation below it unannotated) keeps only
  // its count.
  SqlOperand count_only{"d", "c", "", ""};
  EXPECT_EQ(VarianceSqlGen::MulC({f, count_only, m}), "d.c * m.c");
  EXPECT_EQ(VarianceSqlGen::MulS({f, count_only, m}),
            "f.s * d.c * m.c + m.s * d.c");
  EXPECT_EQ(VarianceSqlGen::MulQ({f, count_only, m}),
            "f.q * d.c * m.c + m.q * d.c + 2 * f.s * m.s * d.c");
}

TEST(SemiringSqlGenTest, GradientFactCountsWithHessian) {
  SqlOperand f{"f", "h", "g", ""};
  SqlOperand d1{"d1", "c", "", ""};
  SqlOperand d2{"d2", "c", "", ""};
  EXPECT_EQ(VarianceSqlGen::MulC({f, d1, d2}), "f.h * d1.c * d2.c");
  EXPECT_EQ(VarianceSqlGen::MulS({f, d1, d2}), "f.g * d1.c * d2.c");
  SqlOperand m{"m", "c", "s", ""};
  EXPECT_EQ(VarianceSqlGen::MulS({f, m}), "f.g * m.c + m.s * f.h");
}

TEST(SemiringSqlGenTest, UnannotatedRelationLeavesMessageTerms) {
  SqlOperand r{"r", "", "", ""};
  SqlOperand m{"m", "c", "s", "q"};
  SqlOperand d{"d", "c", "", ""};
  EXPECT_EQ(VarianceSqlGen::MulC({r, m}), "m.c");
  EXPECT_EQ(VarianceSqlGen::MulS({r, m}), "m.s");
  EXPECT_EQ(VarianceSqlGen::MulQ({r, m}), "m.q");
  EXPECT_EQ(VarianceSqlGen::MulC({r, m, d}), "m.c * d.c");
  EXPECT_EQ(VarianceSqlGen::MulS({r, m, d}), "m.s * d.c");
  EXPECT_EQ(VarianceSqlGen::MulQ({r, m, d}), "m.q * d.c");
  EXPECT_EQ(VarianceSqlGen::MulC({r}), "1");
  EXPECT_EQ(VarianceSqlGen::MulS({r, d}), "0");
  EXPECT_EQ(VarianceSqlGen::MulQ({r, d}), "0");
}

TEST(SemiringSqlGenTest, QuadraticNeedsQWhereverSIs) {
  SqlOperand f{"f", "", "s", ""};
  EXPECT_THROW(VarianceSqlGen::MulQ({f}), JbError);
}

TEST(SemiringSqlGenTest, ResidualUpdateWithAndWithoutCount) {
  // Unit count (a lifted fact): (1,s,q) ⊗ lift(−p).
  EXPECT_EQ(VarianceSqlGen::UpdateS("s", "", 0.5), "s - 0.5");
  EXPECT_EQ(VarianceSqlGen::UpdateQ("q", "s", "", 0.5), "q + 0.25 - 1.0 * s");
  EXPECT_EQ(VarianceSqlGen::UpdateS("s", "", -0.5), "s - (-0.5)");
  EXPECT_EQ(VarianceSqlGen::UpdateQ("q", "s", "", -0.5),
            "q + 0.25 - (-1.0) * s");
  // Weighted count (a cuboid row): (c,s,q) ⊗ lift(−p).
  EXPECT_EQ(VarianceSqlGen::UpdateS("s", "c", 0.5), "s - 0.5 * c");
  EXPECT_EQ(VarianceSqlGen::UpdateQ("q", "s", "c", 0.5),
            "q + 0.25 * c - 1.0 * s");
}

class ObjectiveTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ObjectiveTest, GradientIsNegativeLossDerivative) {
  auto obj = MakeObjective(GetParam());
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    double y = rng.NextDouble() * 10 + 1;  // positive (poisson/gamma need it)
    double p = rng.NextDouble() * 2 + 0.1;
    double eps = 1e-6;
    double dloss = (obj->Loss(y, p + eps) - obj->Loss(y, p - eps)) / (2 * eps);
    double g = obj->Gradient(y, p);
    // g = −∂L/∂p (may be a scaled/approximated version for mae-like
    // objectives at kinks, so allow generous tolerance near |ε|→0).
    if (std::fabs(y - p) > 1e-3) {
      EXPECT_NEAR(-dloss, g, 1e-3 * std::max(1.0, std::fabs(g)))
          << GetParam() << " y=" << y << " p=" << p;
    }
    EXPECT_GE(obj->Hessian(y, p), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllObjectives, ObjectiveTest,
                         ::testing::ValuesIn(ObjectiveNames()));

TEST(ObjectiveTest, OnlyRmseSupportsGalaxy) {
  for (const auto& name : ObjectiveNames()) {
    auto obj = MakeObjective(name);
    EXPECT_EQ(obj->SupportsGalaxy(), name == "rmse") << name;
  }
}

TEST(ObjectiveTest, UnknownObjectiveThrows) {
  EXPECT_THROW(MakeObjective("nope"), JbError);
}

}  // namespace
}  // namespace semiring
}  // namespace joinboost
