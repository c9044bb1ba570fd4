//===- tests/eqclass_test.cpp - Equivalence class grouping tests ------------===//
///
/// \file
/// Grouping hashes into classes, canonical partitions, and the oracle
/// comparison utilities used throughout the evaluation.
///
//===----------------------------------------------------------------------===//

#include "eqclass/EquivClasses.h"

#include "core/AlphaHasher.h"
#include "gen/RandomExpr.h"

#include "ast/Traversal.h"
#include "ast/Uniquify.h"
#include "TestUtil.h"
#include "gtest/gtest.h"

#include <unordered_map>

using namespace hma;

TEST(EquivClasses, GroupsAlphaEquivalentSubexpressions) {
  ExprContext Ctx;
  const Expr *E = uniquifyBinders(
      Ctx, parseT(Ctx, "(foo (lam (x) (add x 7)) (lam (y) (add y 7)))"));
  AlphaHasher<Hash128> H(Ctx);
  std::vector<Hash128> Hashes = H.hashAll(E);
  auto Classes = groupSubexpressionsByHash(E, Hashes);

  // Find the class of the lambdas: exactly two members, both Lams.
  bool FoundLambdaClass = false;
  for (const auto &Class : Classes) {
    if (Class.front()->kind() != ExprKind::Lam)
      continue;
    EXPECT_EQ(Class.size(), 2u);
    FoundLambdaClass = true;
  }
  EXPECT_TRUE(FoundLambdaClass);
  EXPECT_TRUE(classesMatchOracle(Ctx, Classes));

  // Total membership covers every subexpression exactly once.
  size_t Total = 0;
  for (const auto &Class : Classes)
    Total += Class.size();
  EXPECT_EQ(Total, E->treeSize());
}

TEST(EquivClasses, PartitionIdsCanonicalForm) {
  ExprContext Ctx;
  const Expr *E = parseT(Ctx, "(f x x)");
  // Preorder: (f x x), (f x), f, x, x -- ids 0,1,2,3,3.
  AlphaHasher<Hash128> H(Ctx);
  std::vector<uint32_t> Ids = partitionIds(E, H.hashAll(E));
  std::vector<uint32_t> Expected = {0, 1, 2, 3, 3};
  EXPECT_EQ(Ids, Expected);
}

TEST(EquivClasses, PartitionStats) {
  ExprContext Ctx;
  const Expr *E = parseT(Ctx, "(mul (add v 7) (add v 7))");
  AlphaHasher<Hash128> H(Ctx);
  PartitionStats S = partitionStats(E, H.hashAll(E));
  // 13 nodes: root, (mul _), mul, and two copies of the 5-node (add v 7).
  EXPECT_EQ(S.NumSubexpressions, 13u);
  // Classes: root, (mul _), mul, (add v 7), (add v), add, v, 7.
  EXPECT_EQ(S.NumClasses, 8u);
  EXPECT_EQ(S.LargestClass, 2u);
  EXPECT_EQ(S.NumRepeatedClasses, 5u)
      << "(add v 7), (add v), add, v, 7 each occur twice";
}

TEST(EquivClasses, OraclePartitionAgreesWithHashPartitionRandomly) {
  ExprContext Ctx;
  Rng R(42424);
  for (int Rep = 0; Rep != 10; ++Rep) {
    const Expr *E = genBalanced(Ctx, R, 70);
    AlphaHasher<Hash128> H(Ctx);
    std::vector<Hash128> Hashes = H.hashAll(E);
    EXPECT_EQ(partitionIds(E, Hashes), oraclePartitionIds(Ctx, E));
    EXPECT_TRUE(
        classesMatchOracle(Ctx, groupSubexpressionsByHash(E, Hashes)));
  }
}

TEST(EquivClasses, ClassesMatchOracleDetectsViolations) {
  // Feed deliberately broken classes and make sure the checker rejects.
  ExprContext Ctx;
  const Expr *A = parseT(Ctx, "(add x 1)");
  const Expr *B = parseT(Ctx, "(add x 2)");
  const Expr *C = parseT(Ctx, "(add x 1)");
  // False positive: A and B in one class.
  EXPECT_FALSE(classesMatchOracle(Ctx, {{A, B}}));
  // False negative: A and C in different classes.
  EXPECT_FALSE(classesMatchOracle(Ctx, {{A}, {C}}));
  // Correct partition passes.
  EXPECT_TRUE(classesMatchOracle(Ctx, {{A, C}, {B}}));
}

namespace {

/// The grouping as it was before the flat list: a node-based hash map to
/// a class index plus one vector per class. The reference the flat
/// grouping must reproduce class for class and member for member.
template <typename H>
std::vector<std::vector<const Expr *>>
referenceGrouping(const Expr *Root, const std::vector<H> &Hashes) {
  std::vector<std::vector<const Expr *>> Classes;
  std::unordered_map<H, size_t, HashCodeHasher> Index;
  preorder(Root, [&](const Expr *E) {
    auto [It, Inserted] = Index.try_emplace(Hashes[E->id()], Classes.size());
    if (Inserted)
      Classes.emplace_back();
    Classes[It->second].push_back(E);
  });
  return Classes;
}

/// Build a term in a fresh context with \p Gen and compare the flat
/// grouping of its width-H hashes against the reference.
template <typename H, typename Build>
void expectFlatMatchesReference(Build Gen) {
  ExprContext Ctx;
  const Expr *Root = Gen(Ctx);
  AlphaHasher<H> Hasher(Ctx);
  const std::vector<H> Hashes = Root ? Hasher.hashAll(Root) : std::vector<H>();
  const auto Want = referenceGrouping(Root, Hashes);
  const EquivClassList Got = groupSubexpressionsByHash(Root, Hashes);
  ASSERT_EQ(Got.size(), Want.size());
  std::unordered_map<const Expr *, uint32_t> ClassOf;
  size_t C = 0;
  for (ClassView Class : Got) {
    ASSERT_EQ(std::vector<const Expr *>(Class.begin(), Class.end()), Want[C])
        << "class " << C;
    for (const Expr *E : Class)
      ClassOf[E] = static_cast<uint32_t>(C);
    ++C;
  }
  EXPECT_EQ(C, Got.size());
  std::vector<uint32_t> IdsOffList;
  preorder(Root, [&](const Expr *E) { IdsOffList.push_back(ClassOf.at(E)); });
  EXPECT_EQ(partitionIds(Root, Hashes), IdsOffList);
}

template <typename H> void expectFlatMatchesReferenceOnAllInputs() {
  Rng R(0x666C6174);
  for (int Rep = 0; Rep != 100; ++Rep) {
    const uint32_t Size = 1 + static_cast<uint32_t>(R.below(5000));
    expectFlatMatchesReference<H>(
        [&](ExprContext &C) { return genBalanced(C, R, Size); });
    expectFlatMatchesReference<H>(
        [&](ExprContext &C) { return genUnbalanced(C, R, Size); });
  }
  expectFlatMatchesReference<H>(
      [&](ExprContext &C) { return genBalanced(C, R, 1u << 16); });
  expectFlatMatchesReference<H>(
      [](ExprContext &C) { return parseT(C, "x"); });
  expectFlatMatchesReference<H>(
      [](ExprContext &) -> const Expr * { return nullptr; });
}

} // namespace

TEST(EquivClasses, FlatGroupingMatchesReferenceGrouping) {
  // Hash16 makes distinct classes share slots: long probe chains.
  expectFlatMatchesReferenceOnAllInputs<Hash16>();
  expectFlatMatchesReferenceOnAllInputs<Hash32>();
  expectFlatMatchesReferenceOnAllInputs<Hash128>();

  const EquivClassList Empty = groupSubexpressionsByHash(
      static_cast<const Expr *>(nullptr), std::vector<Hash128>());
  EXPECT_EQ(Empty.size(), 0u);
  EXPECT_TRUE(Empty.begin() == Empty.end());
  EXPECT_EQ(partitionStats(Empty).NumSubexpressions, 0u);
}
