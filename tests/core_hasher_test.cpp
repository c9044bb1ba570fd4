//===- tests/core_hasher_test.cpp - AlphaHasher (Step 2) tests --------------===//
///
/// \file
/// The headline algorithm: hash equality must coincide with
/// alpha-equivalence (Theorem 6.7, at 128 bits collisions are
/// negligible); per-node hashes must induce exactly the partition the
/// Step-1 summaries induce; map-operation counts must obey Lemma 6.2's
/// O(n log n) bound.
///
//===----------------------------------------------------------------------===//

#include "core/AlphaHasher.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Printer.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "eqclass/EquivClasses.h"
#include "gen/MLModels.h"
#include "gen/RandomExpr.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <cmath>

using namespace hma;

namespace {

const Expr *prep(ExprContext &Ctx, const char *Src) {
  return uniquifyBinders(Ctx, parseT(Ctx, Src));
}

Hash128 hashOf(ExprContext &Ctx, const char *Src) {
  AlphaHasher<Hash128> H(Ctx);
  return H.hashRoot(prep(Ctx, Src));
}

} // namespace

//===----------------------------------------------------------------------===//
// Hand-picked equalities and inequalities
//===----------------------------------------------------------------------===//

TEST(AlphaHasher, RenamedBindersHashEqual) {
  ExprContext Ctx;
  EXPECT_EQ(hashOf(Ctx, "(lam (x) (add x 1))"),
            hashOf(Ctx, "(lam (y) (add y 1))"));
  EXPECT_EQ(hashOf(Ctx, "(let (x (exp z)) (add x 7))"),
            hashOf(Ctx, "(let (y (exp z)) (add y 7))"));
  EXPECT_EQ(hashOf(Ctx, "(lam (x y) (x (y x)))"),
            hashOf(Ctx, "(lam (a b) (a (b a)))"));
}

TEST(AlphaHasher, DifferentFreeVariablesHashDifferent) {
  ExprContext Ctx;
  EXPECT_NE(hashOf(Ctx, "(lam (x) (add x y))"),
            hashOf(Ctx, "(lam (q) (add q z))"));
  EXPECT_NE(hashOf(Ctx, "x"), hashOf(Ctx, "y"));
}

TEST(AlphaHasher, StructuralDifferencesHashDifferent) {
  ExprContext Ctx;
  EXPECT_NE(hashOf(Ctx, "(lam (x) (x (x x)))"),
            hashOf(Ctx, "(lam (x) ((x x) x))"));
  EXPECT_NE(hashOf(Ctx, "(add x x)"), hashOf(Ctx, "(add x y)"));
  EXPECT_NE(hashOf(Ctx, "(lam (x y) x)"), hashOf(Ctx, "(lam (x y) y)"));
  EXPECT_NE(hashOf(Ctx, "(lam (x) x)"), hashOf(Ctx, "(let (x g0) x)"));
  EXPECT_NE(hashOf(Ctx, "7"), hashOf(Ctx, "8"));
  EXPECT_NE(hashOf(Ctx, "(lam (x) y)"), hashOf(Ctx, "(lam (x) x)"));
}

TEST(AlphaHasher, UnusedBinderMatters) {
  // \x.\y.y and \y.y are different; \x.y ~ \z.y though.
  ExprContext Ctx;
  EXPECT_NE(hashOf(Ctx, "(lam (x y) y)"), hashOf(Ctx, "(lam (y) y)"));
  EXPECT_EQ(hashOf(Ctx, "(lam (x) free)"), hashOf(Ctx, "(lam (z) free)"));
}

TEST(AlphaHasher, LetRhsScopingRespected) {
  ExprContext Ctx;
  EXPECT_EQ(hashOf(Ctx, "(let (x (f x0)) x)"),
            hashOf(Ctx, "(let (y (f x0)) y)"));
  EXPECT_NE(hashOf(Ctx, "(let (x (f x0)) x)"),
            hashOf(Ctx, "(let (y (f y0)) y)"));
}

TEST(AlphaHasher, SeedChangesHashesButNotPartition) {
  ExprContext Ctx;
  Rng R(5);
  const Expr *E = genBalanced(Ctx, R, 100);
  AlphaHasher<Hash128> H1(Ctx, HashSchema(1));
  AlphaHasher<Hash128> H2(Ctx, HashSchema(2));
  std::vector<Hash128> V1 = H1.hashAll(E), V2 = H2.hashAll(E);
  EXPECT_NE(V1[E->id()], V2[E->id()]) << "different seeds, same hash";
  EXPECT_EQ(partitionIds(E, V1), partitionIds(E, V2))
      << "the induced partition must be seed-independent";
}

TEST(AlphaHasher, DeterministicAcrossRunsAndContexts) {
  ExprContext A, B;
  B.name("occupy_id_zero"); // skew interning order
  Hash128 HA = AlphaHasher<Hash128>(A).hashRoot(
      uniquifyBinders(A, parseT(A, "(lam (x) (add x free))")));
  Hash128 HB = AlphaHasher<Hash128>(B).hashRoot(
      uniquifyBinders(B, parseT(B, "(lam (y) (add y free))")));
  EXPECT_EQ(HA, HB) << "hashes must depend on spellings, not intern order";
}

//===----------------------------------------------------------------------===//
// Per-node partition vs the oracle and vs Step-1 summaries
//===----------------------------------------------------------------------===//

class AlphaHasherPartitionTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AlphaHasherPartitionTest, MatchesOraclePartition) {
  uint32_t Size = GetParam();
  ExprContext Ctx;
  Rng R(999 + Size);
  for (int Rep = 0; Rep != 8; ++Rep) {
    const Expr *E = (Rep % 2 == 0) ? genBalanced(Ctx, R, Size)
                                   : genUnbalanced(Ctx, R, Size);
    AlphaHasher<Hash128> H(Ctx);
    std::vector<Hash128> Hashes = H.hashAll(E);
    EXPECT_EQ(partitionIds(E, Hashes), oraclePartitionIds(Ctx, E))
        << "size " << Size << " rep " << Rep;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlphaHasherPartitionTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40, 90, 160));

TEST(AlphaHasher, PartitionMatchesOracleOnLetHeavyPrograms) {
  ExprContext Ctx;
  Rng R(31337);
  for (int Rep = 0; Rep != 10; ++Rep) {
    const Expr *E = uniquifyBinders(Ctx, genArithmetic(Ctx, R, 120));
    AlphaHasher<Hash128> H(Ctx);
    EXPECT_EQ(partitionIds(E, H.hashAll(E)), oraclePartitionIds(Ctx, E));
  }
}

TEST(AlphaHasher, BertDiscoversRepeatedStructure) {
  // Layers carry layer-specific weights (free variables), so whole-layer
  // blocks are *not* alpha-equivalent -- but the unrolled attention
  // arithmetic repeats heavily within and across heads. The hasher must
  // surface that repetition (the ML-preprocessing use case of Section 1).
  ExprContext Ctx;
  const Expr *E = buildBert(Ctx, 3);
  AlphaHasher<Hash128> H(Ctx);
  std::vector<Hash128> Hashes = H.hashAll(E);
  PartitionStats S = partitionStats(E, Hashes);
  EXPECT_LT(S.NumClasses, S.NumSubexpressions * 3 / 4)
      << "at least a quarter of subexpressions should be repeats";
  EXPECT_GE(S.LargestClass, 3u);
}

TEST(AlphaHasher, TwoBertInstancesShareEverything) {
  // Two separately built models are node-disjoint but alpha-equivalent;
  // every subexpression of one must hash equal to its twin in the other
  // (structure sharing across compilation units).
  ExprContext Ctx;
  const Expr *M1 = buildBert(Ctx, 2);
  const Expr *M2 = buildBert(Ctx, 2);
  ASSERT_NE(M1, M2);
  AlphaHasher<Hash128> H(Ctx);
  EXPECT_EQ(H.hashRoot(M1), H.hashRoot(M2));
}

//===----------------------------------------------------------------------===//
// Lemma 6.2: O(n log n) variable-map operations
//===----------------------------------------------------------------------===//

class AlphaHasherComplexityTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(AlphaHasherComplexityTest, MapOpsWithinLemmaBound) {
  uint32_t Size = GetParam();
  ExprContext Ctx;
  Rng R(4242);
  for (bool Balanced : {true, false}) {
    const Expr *E = Balanced ? genBalanced(Ctx, R, Size)
                             : genUnbalanced(Ctx, R, Size);
    AlphaHasher<Hash128> H(Ctx);
    H.hashRoot(E);
    double N = Size;
    double Bound = 2.0 * N * std::log2(N + 1) + 4 * N + 16;
    EXPECT_LE(H.stats().totalMapOps(), Bound)
        << (Balanced ? "balanced" : "unbalanced") << " n=" << Size;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlphaHasherComplexityTest,
                         ::testing::Values(64, 512, 4096, 32768));

TEST(AlphaHasher, UnbalancedMergeIsLinearish) {
  // On a pure binder spine the smaller map always has O(1) entries, so
  // alters should be ~n, far below the n log n worst case.
  ExprContext Ctx;
  Rng R(5);
  const Expr *E = genUnbalanced(Ctx, R, 50000);
  AlphaHasher<Hash128> H(Ctx);
  H.hashRoot(E);
  EXPECT_LE(H.stats().MapAlters, 2u * 50000)
      << "spine merges must touch only the leaf-sized map";
}

//===----------------------------------------------------------------------===//
// Stats and API details
//===----------------------------------------------------------------------===//

TEST(AlphaHasher, StatsCountOperations) {
  ExprContext Ctx;
  const Expr *E = prep(Ctx, "(lam (x) (add x x))");
  AlphaHasher<Hash128> H(Ctx);
  H.hashRoot(E);
  // 3 Var leaves -> 3 singletons; 1 Lam -> 1 remove; 2 Apps.
  EXPECT_EQ(H.stats().MapSingletons, 3u);
  EXPECT_EQ(H.stats().MapRemoves, 1u);
  EXPECT_GE(H.stats().MapAlters, 1u);
  H.resetStats();
  EXPECT_EQ(H.stats().totalMapOps(), 0u);
}

TEST(AlphaHasher, HashAllCoversExactlyTheTree) {
  ExprContext Ctx;
  const Expr *Other = parseT(Ctx, "(unrelated tree)");
  const Expr *E = prep(Ctx, "(lam (x) (f x))");
  AlphaHasher<Hash128> H(Ctx);
  std::vector<Hash128> Hashes = H.hashAll(E);
  ASSERT_EQ(Hashes.size(), Ctx.numNodes());
  preorder(E, [&](const Expr *N) {
    EXPECT_FALSE(Hashes[N->id()].isZero()) << "missing hash in the tree";
  });
  preorder(Other, [&](const Expr *N) {
    EXPECT_TRUE(Hashes[N->id()].isZero()) << "hash leaked outside the tree";
  });
}

TEST(AlphaHasher, HashRootAgreesWithHashAll) {
  ExprContext Ctx;
  Rng R(11);
  const Expr *E = genBalanced(Ctx, R, 333);
  AlphaHasher<Hash128> H(Ctx);
  std::vector<Hash128> All = H.hashAll(E);
  EXPECT_EQ(H.hashRoot(E), All[E->id()]);
}

TEST(AlphaHasher, DeepSpineMillionNodes) {
  ExprContext Ctx;
  Rng R(6);
  const Expr *E = genUnbalanced(Ctx, R, 1000001);
  AlphaHasher<Hash128> H(Ctx);
  Hash128 Root = H.hashRoot(E);
  EXPECT_FALSE(Root.isZero());
}

//===----------------------------------------------------------------------===//
// All three hash widths instantiate and agree on the partition
//===----------------------------------------------------------------------===//

template <typename H> class AlphaHasherWidthTest : public ::testing::Test {};
using Widths = ::testing::Types<Hash128, Hash64, Hash16>;
TYPED_TEST_SUITE(AlphaHasherWidthTest, Widths);

TYPED_TEST(AlphaHasherWidthTest, RenamingInvariantAtEveryWidth) {
  ExprContext Ctx;
  const Expr *A = uniquifyBinders(Ctx, parseT(Ctx, "(lam (x) (add x 1))"));
  const Expr *B = uniquifyBinders(Ctx, parseT(Ctx, "(lam (y) (add y 1))"));
  AlphaHasher<TypeParam> H(Ctx);
  EXPECT_EQ(H.hashRoot(A), H.hashRoot(B));
}

TYPED_TEST(AlphaHasherWidthTest, RandomRenamingsAgree) {
  ExprContext Ctx;
  Rng R(123);
  AlphaHasher<TypeParam> H(Ctx);
  for (int Rep = 0; Rep != 20; ++Rep) {
    const Expr *E = genBalanced(Ctx, R, 50);
    const Expr *Renamed = alphaRename(Ctx, R, E);
    EXPECT_EQ(H.hashRoot(E), H.hashRoot(Renamed));
  }
}

//===----------------------------------------------------------------------===//
// Name-cache growth across calls
//===----------------------------------------------------------------------===//

TEST(AlphaHasher, NamesInternedBetweenCallsHashCorrectly) {
  // Regression: the per-name spelling-hash cache is sized lazily; names
  // interned AFTER a hashRoot call sized the cache must still get slots
  // (the old code resized to exactly names().size() at first touch, which
  // could leave later-interned names out of a mid-pass resize). The cache
  // now grows to a power of two past max(N + 1, names().size()).
  ExprContext Ctx;
  AlphaHasher<Hash128> H(Ctx);

  // First call sizes the cache to the names interned so far.
  const Expr *A = prep(Ctx, "(lam (x) (add x 1))");
  Hash128 HA = H.hashRoot(A);

  // Intern a burst of brand-new names, then hash an expression using them
  // with the SAME hasher.
  for (int I = 0; I != 100; ++I)
    Ctx.names().intern("late_" + std::to_string(I));
  const Expr *B = prep(Ctx, "(lam (q) (late_7 (late_93 (q late_42))))");
  Hash128 HB = H.hashRoot(B);

  // A fresh hasher (cache sized after all interning) must agree exactly.
  AlphaHasher<Hash128> Fresh(Ctx);
  EXPECT_EQ(HB, Fresh.hashRoot(B));
  EXPECT_EQ(HA, Fresh.hashRoot(A));

  // And nameHash itself answers for a name interned a moment ago.
  Name Brand = Ctx.names().intern("very_latest");
  EXPECT_EQ(H.nameHash(Brand), Fresh.nameHash(Brand));
}

TEST(AlphaHasher, RebindInvalidatesTheNameCache) {
  // Two contexts interning different spellings in different orders: a
  // rebound hasher must hash by spelling, not by stale cached name ids.
  ExprContext C1, C2;
  C1.names().intern("only_in_c1");
  const Expr *E1 = uniquifyBinders(C1, parseT(C1, "(f free_one)"));
  const Expr *E2 = uniquifyBinders(C2, parseT(C2, "(f free_two)"));

  AlphaHasher<Hash128> H(C1);
  Hash128 H1 = H.hashRoot(E1);
  H.rebind(C2);
  Hash128 H2 = H.hashRoot(E2);

  EXPECT_NE(H1, H2); // different free variables
  EXPECT_EQ(H1, AlphaHasher<Hash128>(C1).hashRoot(E1));
  EXPECT_EQ(H2, AlphaHasher<Hash128>(C2).hashRoot(E2));

  // Round-trip back to C1: cache is rebuilt, hashes stay stable.
  H.rebind(C1);
  EXPECT_EQ(H.hashRoot(E1), H1);
}

//===----------------------------------------------------------------------===//
// The byte driver (hashSerialized) against decode + the Expr driver
//===----------------------------------------------------------------------===//

namespace {

/// \p Blob with name-table entry 1 respelled as entry 0, when both are
/// two-byte spellings (every v0..v5 pool name): a repeated-spelling
/// table, which the serializer never writes and the decoder merges.
std::string repeatFirstSpelling(std::string Blob) {
  // "HMA1", count, then (length, spelling) entries.
  if (Blob.size() < 11 || Blob[4] < 2 || Blob[5] != 2 || Blob[8] != 2)
    return std::string();
  Blob[9] = Blob[6];
  Blob[10] = Blob[7];
  return Blob;
}

} // namespace

template <typename H> class HashSerializedTest : public ::testing::Test {};
using DriverWidths = ::testing::Types<Hash128, Hash16>;
TYPED_TEST_SUITE(HashSerializedTest, DriverWidths);

TYPED_TEST(HashSerializedTest, AgreesWithDecodeThenHashRoot) {
  // Shadow-heavy terms over 2-6 names with Lam, Let and Const binders
  // that repeat, shadow and clash with free uses; a quarter are
  // uniquified, and some get a repeated-spelling name table. The byte
  // driver must succeed exactly when the decoder proves distinct binders
  // and then equal hashRoot(uniquifyBinders(decode)) bit for bit; a blob
  // it refuses must hash, once canonicalized, to that same value. Blobs
  // are decoded into a fresh context and into one that pre-interned
  // every pool name, and one hasher serves every blob, so stale byte
  // driver scratch would show.
  using H = TypeParam;
  Rng R(4242);
  ExprContext Shared;
  for (unsigned N = 0; N != 6; ++N)
    Shared.name("v" + std::to_string(N));
  ExprContext Boot;
  AlphaHasher<H> Bytes(Boot);
  uint64_t Proven = 0, Refused = 0, Respelled = 0;
  for (unsigned I = 0; I != 20000; ++I) {
    ExprContext Ctx;
    const unsigned Pool = 2 + static_cast<unsigned>(R.below(5));
    const Expr *E =
        genShadowHeavy(Ctx, R, 1 + static_cast<unsigned>(R.below(24)), Pool);
    if (I % 4 == 0)
      E = uniquifyBinders(Ctx, E);
    std::string Blob = serializeExpr(Ctx, E);
    if (I % 8 == 3) {
      std::string Repeated = repeatFirstSpelling(Blob);
      if (!Repeated.empty()) {
        Blob = std::move(Repeated);
        ++Respelled;
      }
    }
    const std::optional<H> Got = Bytes.hashSerialized(Blob);
    for (ExprContext *Into : {static_cast<ExprContext *>(nullptr), &Shared}) {
      ExprContext Fresh;
      ExprContext &Out = Into ? *Into : Fresh;
      DeserializeResult D = deserializeExpr(Out, Blob);
      ASSERT_TRUE(D.ok()) << D.Error;
      ASSERT_EQ(Got.has_value(), D.DistinctBinders) << printExpr(Out, D.E);
      const Expr *Root = uniquifyBinders(Out, D.E);
      const H Want = AlphaHasher<H>(Out).hashRoot(Root);
      if (Got) {
        ASSERT_EQ(*Got, Want) << printExpr(Out, D.E);
      }
      const std::optional<H> Canonical =
          Bytes.hashSerialized(serializeExpr(Out, Root));
      ASSERT_TRUE(Canonical.has_value()) << printExpr(Out, Root);
      ASSERT_EQ(*Canonical, Want) << printExpr(Out, Root);
    }
    (Got ? Proven : Refused) += 1;
  }
  EXPECT_GT(Proven, 5000u);
  EXPECT_GT(Refused, 5000u);
  EXPECT_GT(Respelled, 1000u);
}

TYPED_TEST(HashSerializedTest, AgreesOnLargeTermsAndModels) {
  // Big balanced and unbalanced terms exercise the smaller-into-bigger
  // merge at depth; the ML models bring Let-heavy sharing.
  using H = TypeParam;
  ExprContext Ctx;
  Rng R(99);
  std::vector<const Expr *> Terms = {
      genBalanced(Ctx, R, 4096), genUnbalanced(Ctx, R, 4096),
      buildMnistCnn(Ctx), buildGmm(Ctx)};
  AlphaHasher<H> Tree(Ctx);
  ExprContext Boot;
  AlphaHasher<H> Bytes(Boot);
  for (const Expr *E : Terms) {
    E = uniquifyBinders(Ctx, E);
    const std::optional<H> Got = Bytes.hashSerialized(serializeExpr(Ctx, E));
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, Tree.hashRoot(E));
  }
}

TEST(HashSerialized, ScratchIsReusedWithoutPoolGrowth) {
  // Once warmed on a workload's largest term, the byte driver hashes
  // further blobs without carving a single new map node.
  ExprContext Ctx;
  Rng R(7);
  std::vector<std::string> Blobs;
  for (int I = 0; I != 200; ++I)
    Blobs.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 64)));
  ExprContext Boot;
  AlphaHasher<Hash128> Bytes(Boot);
  for (const std::string &B : Blobs)
    ASSERT_TRUE(Bytes.hashSerialized(B).has_value());
  const size_t Warm = Bytes.poolAllocatedNodes();
  for (const std::string &B : Blobs)
    ASSERT_TRUE(Bytes.hashSerialized(B).has_value());
  EXPECT_EQ(Bytes.poolAllocatedNodes(), Warm);
  EXPECT_EQ(Bytes.poolLiveNodes(), 0u);
}

//===----------------------------------------------------------------------===//
// Golden root hashes and the root-only vs per-node differential
//===----------------------------------------------------------------------===//

namespace {

/// One pinned root hash: \p Src parsed and uniquified, hashed under
/// HashSchema(\p Seed). The hex values were recorded from the per-node
/// fold that maintains the XOR aggregate at every node; HMAI files store
/// these hashes, so any drift would turn every lookup into a miss.
struct GoldenRoot {
  const char *Src;
  uint64_t Seed;
  const char *Hex128;
  const char *Hex16;
};

constexpr uint64_t OtherSeed = 0x0123456789ABCDEFULL;

const char *const Closed = "(lam (x y) (x (y x)))";
const char *const OneFree = "(lam (x) (add x free))";
/// Ten free variables at the root: a spilled root map.
const char *const Spilled =
    "(lam (x) (f0 (f1 (f2 x) (f3 f4)) (f5 (f6 f7) (f8 (f9 x)))))";
/// Let with used and unused binders, and constants.
const char *const LetConst =
    "(let (x (mul 3 y)) (add x (let (z 7) (let (u -2) (mul z x)))))";

const GoldenRoot GoldenRoots[] = {
    {Closed, HashSchema::DefaultSeed, "135649a8aed24b1fb07e4da43024a420",
     "9324"},
    {Closed, OtherSeed, "51879c12c3a9904debf6a377a1c2abe5", "5e92"},
    {OneFree, HashSchema::DefaultSeed, "3265191586f080f360f1aed79f2d6674",
     "7d7e"},
    {OneFree, OtherSeed, "4f1b2a05e4aed870874d81ca918db63b", "14d8"},
    {Spilled, HashSchema::DefaultSeed, "a8b24036fb47d82b6d86303059d33317",
     "2c6a"},
    {Spilled, OtherSeed, "0df9df4be3728fa19a772e8f902ebc8d", "2362"},
    {LetConst, HashSchema::DefaultSeed, "f42b0400675324799efa64f96ea9598b",
     "010e"},
    {LetConst, OtherSeed, "28c757da90f9fe332706a5b89f0edaf0", "e715"},
};

/// The root hash of \p E three ways: the byte driver, the root-only
/// Expr driver and the per-node Expr driver.
template <typename H> struct RootHashes {
  std::optional<H> Serialized;
  H Root;
  H AllAtRoot;
};

template <typename H>
RootHashes<H> rootHashes(ExprContext &Ctx, const Expr *E,
                         const HashSchema &Schema = HashSchema()) {
  AlphaHasher<H> A(Ctx, Schema);
  ExprContext Boot;
  AlphaHasher<H> Bytes(Boot, Schema);
  RootHashes<H> R;
  R.Serialized = Bytes.hashSerialized(serializeExpr(Ctx, E));
  R.Root = A.hashRoot(E);
  R.AllAtRoot = A.hashAll(E)[E->id()];
  return R;
}

template <typename H> void expectGolden(const GoldenRoot &G, const char *Hex) {
  ExprContext Ctx;
  const Expr *E = prep(Ctx, G.Src);
  const RootHashes<H> R = rootHashes<H>(Ctx, E, HashSchema(G.Seed));
  ASSERT_TRUE(R.Serialized.has_value()) << G.Src;
  EXPECT_EQ(R.Serialized->toHex(), Hex)
      << "hashSerialized, " << HashWidth<H>::Name << ", seed " << G.Seed
      << ": " << G.Src;
  EXPECT_EQ(R.Root.toHex(), Hex)
      << "hashRoot, " << HashWidth<H>::Name << ", seed " << G.Seed << ": "
      << G.Src;
  EXPECT_EQ(R.AllAtRoot.toHex(), Hex)
      << "hashAll, " << HashWidth<H>::Name << ", seed " << G.Seed << ": "
      << G.Src;
}

/// Apply \p E to \p Count fresh free variables, one after another.
const Expr *withFreeVars(ExprContext &Ctx, const Expr *E, unsigned Count) {
  for (unsigned I = 0; I != Count; ++I)
    E = Ctx.app(E, Ctx.var("extra_free_" + std::to_string(I)));
  return E;
}

} // namespace

TEST(AlphaHasherGolden, RootHashesArePinned) {
  for (const GoldenRoot &G : GoldenRoots) {
    expectGolden<Hash128>(G, G.Hex128);
    expectGolden<Hash16>(G, G.Hex16);
  }
}

template <typename H> class RootOnlyDifferentialTest : public ::testing::Test {};
using AllWidths = ::testing::Types<Hash16, Hash32, Hash64, Hash128>;
TYPED_TEST_SUITE(RootOnlyDifferentialTest, AllWidths);

TYPED_TEST(RootOnlyDifferentialTest, RootOnlyDriversMatchPerNodeFold) {
  // hashSerialized and hashRoot skip the per-node aggregate and fold the
  // root map once; hashAll maintains it at every node. They must agree
  // bit for bit on balanced, unbalanced, arithmetic and adversarial
  // terms, with no, one and more than a small map's worth of extra free
  // variables at the root.
  using H = TypeParam;
  Rng R(20210502);
  for (unsigned I = 0; I != 60; ++I) {
    ExprContext Ctx;
    const uint32_t Size = 1 + static_cast<uint32_t>(R.below(400));
    std::vector<const Expr *> Terms;
    switch (I % 4) {
    case 0:
      Terms.push_back(genBalanced(Ctx, R, Size));
      break;
    case 1:
      Terms.push_back(genUnbalanced(Ctx, R, Size));
      break;
    case 2:
      Terms.push_back(uniquifyBinders(Ctx, genArithmetic(Ctx, R, Size)));
      break;
    case 3: {
      auto [A, B] = genAdversarialPair(Ctx, R, 8 + Size);
      Terms = {A, B};
      break;
    }
    }
    for (const Expr *T : Terms)
      for (unsigned Extra : {0u, 1u, 12u}) {
        const Expr *E = withFreeVars(Ctx, T, Extra);
        const RootHashes<H> Got = rootHashes<H>(Ctx, E);
        ASSERT_TRUE(Got.Serialized.has_value());
        EXPECT_EQ(*Got.Serialized, Got.AllAtRoot)
            << "term " << I << " extra " << Extra;
        EXPECT_EQ(Got.Root, Got.AllAtRoot)
            << "term " << I << " extra " << Extra;
      }
  }
}
