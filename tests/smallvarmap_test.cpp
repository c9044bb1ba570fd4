//===- tests/smallvarmap_test.cpp - Adaptive small-map differential tests ----===//
///
/// \file
/// SmallVarMap must hold the same contents as AvlMap and give the same
/// alter/remove results -- through randomized operation sequences, across
/// the inline->table spill boundary, through table growth, wrap-around
/// and backward-shift deletion (forced with fixed hash multipliers), and
/// (the property that actually matters) through the whole AlphaHasher
/// data flow: the adaptive and AVL-only map policies must produce
/// bit-identical hashes at every width b in {16, 32, 64, 128}. Only the
/// inline representation iterates in key order; a spilled table iterates
/// in slot order, so differentials compare sorted contents.
///
//===----------------------------------------------------------------------===//

#include "adt/SmallVarMap.h"

#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "gen/MLModels.h"
#include "gen/RandomExpr.h"
#include "support/Random.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <optional>
#include <vector>

using namespace hma;

using SMap = SmallVarMap<uint32_t, uint64_t>;
using AMap = AvlMap<uint32_t, uint64_t>;

namespace {

using Entries = std::vector<std::pair<uint32_t, uint64_t>>;

/// \p M's entries, sorted by key.
template <typename MapT> Entries sortedEntries(const MapT &M) {
  Entries Out;
  M.forEach([&](uint32_t K, uint64_t V) { Out.push_back({K, V}); });
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Assert \p S and \p A hold identical entries (in any order), each key
/// once.
void expectSameContents(const SMap &S, const AMap &A) {
  ASSERT_EQ(S.size(), A.size());
  Entries SE = sortedEntries(S);
  EXPECT_EQ(SE, sortedEntries(A));
  EXPECT_EQ(SE.size(), S.size()) << "forEach must visit each entry once";
}

/// Multiply-shift multipliers that make home slots predictable. With
/// 2^59 + 1 and a 32-slot table (the size a map spills into), a key
/// below 2^59 homes at `Key % 32`. With 1, every 32-bit key homes at
/// slot 0 of any table up to 2^32 slots.
constexpr uint64_t ModuloMultiplier = (uint64_t(1) << 59) + 1;
constexpr uint64_t OneHomeMultiplier = 1;
constexpr unsigned SpillLogCap = 5;

} // namespace

TEST(SmallVarMap, EmptyBehaviour) {
  SMap::Pool P;
  SMap M(P);
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.size(), 0u);
  EXPECT_FALSE(M.spilled());
  EXPECT_EQ(M.find(7), nullptr);
  EXPECT_FALSE(M.remove(7).has_value());
  M.forEach([](uint32_t, uint64_t) { FAIL() << "empty map has no entries"; });
  EXPECT_TRUE(M.checkInvariants());
}

TEST(SmallVarMap, InlineInsertFindRemoveStaysOrdered) {
  SMap::Pool P;
  SMap M(P);
  for (uint32_t K : {9u, 2u, 7u, 1u})
    M.set(K, K * 10);
  EXPECT_FALSE(M.spilled());
  EXPECT_EQ(P.liveNodes(), 0u) << "inline entries must not touch the pool";
  std::vector<uint32_t> Keys;
  M.forEach([&](uint32_t K, uint64_t V) {
    Keys.push_back(K);
    EXPECT_EQ(V, K * 10);
  });
  EXPECT_EQ(Keys, (std::vector<uint32_t>{1, 2, 7, 9}));

  std::optional<uint64_t> Removed = M.remove(7);
  ASSERT_TRUE(Removed.has_value());
  EXPECT_EQ(*Removed, 70u);
  EXPECT_EQ(M.size(), 3u);
  EXPECT_EQ(M.find(7), nullptr);
  ASSERT_NE(M.find(9), nullptr);
  EXPECT_EQ(*M.find(9), 90u);
  EXPECT_TRUE(M.checkInvariants());
}

TEST(SmallVarMap, AlterSeesOldValue) {
  SMap::Pool P;
  SMap M(P);
  M.alter(5, [](uint64_t *Old) {
    EXPECT_EQ(Old, nullptr);
    return 50u;
  });
  M.alter(5, [](uint64_t *Old) {
    EXPECT_NE(Old, nullptr);
    EXPECT_EQ(*Old, 50u);
    return 55u;
  });
  EXPECT_EQ(*M.find(5), 55u);
  EXPECT_EQ(M.size(), 1u);
}

TEST(SmallVarMap, SpillBoundary) {
  // Fill to N-1, N, N+1 entries: the map must spill exactly when the
  // (N+1)-th distinct key arrives, preserving contents.
  constexpr unsigned N = SMap::InlineCapacity;
  SMap::Pool P;
  SMap M(P);

  for (unsigned I = 0; I != N - 1; ++I)
    M.set(I * 3, I);
  EXPECT_EQ(M.size(), N - 1);
  EXPECT_FALSE(M.spilled());
  EXPECT_TRUE(M.checkInvariants());

  M.set((N - 1) * 3, N - 1); // N-th entry: still inline
  EXPECT_EQ(M.size(), N);
  EXPECT_FALSE(M.spilled());
  EXPECT_EQ(P.liveNodes(), 0u);
  EXPECT_TRUE(M.checkInvariants());

  // Overwriting an existing key at capacity must NOT spill.
  M.set(0, 1000);
  EXPECT_EQ(M.size(), N);
  EXPECT_FALSE(M.spilled());

  M.set(N * 3 + 1, N); // (N+1)-th entry: spills to the table
  EXPECT_EQ(M.size(), N + 1);
  EXPECT_TRUE(M.spilled());
  // One table at load <= 1/2, below 4x the entry count.
  EXPECT_GE(P.liveNodes(), 2 * (size_t(N) + 1));
  EXPECT_LT(P.liveNodes(), 4 * (size_t(N) + 1));
  EXPECT_TRUE(M.checkInvariants());

  // Everything survived the spill, each key once, including the
  // overwrite.
  std::vector<uint32_t> Keys;
  M.forEach([&](uint32_t K, uint64_t V) {
    Keys.push_back(K);
    if (K == 0) {
      EXPECT_EQ(V, 1000u);
    }
  });
  ASSERT_EQ(Keys.size(), size_t(N) + 1);
  std::sort(Keys.begin(), Keys.end());
  for (size_t I = 1; I != Keys.size(); ++I)
    EXPECT_LT(Keys[I - 1], Keys[I]);
  for (unsigned I = 0; I != N; ++I)
    EXPECT_EQ(Keys[I], I * 3);
  EXPECT_EQ(Keys[N], N * 3 + 1);

  // Removals below the threshold do not un-spill (no representation
  // thrash at the boundary)...
  for (unsigned I = 0; I != N; ++I)
    M.remove(I * 3);
  EXPECT_EQ(M.size(), 1u);
  EXPECT_TRUE(M.spilled());
  // ...but clear() returns to inline mode and the pool.
  M.clear();
  EXPECT_FALSE(M.spilled());
  EXPECT_EQ(P.liveNodes(), 0u);
  M.set(1, 1);
  EXPECT_FALSE(M.spilled());
  EXPECT_EQ(P.liveNodes(), 0u);
}

TEST(SmallVarMap, MoveTransfersBothRepresentations) {
  SMap::Pool P;
  {
    // Inline move.
    SMap A(P);
    A.set(1, 100);
    SMap B = std::move(A);
    EXPECT_EQ(B.size(), 1u);
    EXPECT_EQ(*B.find(1), 100u);
    EXPECT_TRUE(A.empty()); // NOLINT: moved-from is specified empty
  }
  {
    // Spilled move.
    SMap A(P);
    for (uint32_t I = 0; I != 2 * SMap::InlineCapacity; ++I)
      A.set(I, I);
    ASSERT_TRUE(A.spilled());
    SMap B = std::move(A);
    EXPECT_TRUE(A.empty());
    EXPECT_EQ(B.size(), 2u * SMap::InlineCapacity);
    EXPECT_TRUE(B.checkInvariants());
  }
  EXPECT_EQ(P.liveNodes(), 0u);
}

namespace {

/// Drive \p S (over \p SP) and a fresh AvlMap through \p Steps random
/// alter/remove/find/clear operations on keys below \p KeyRange,
/// checking every result and, periodically, the full contents.
void runRandomizedDifferential(SMap::Pool &SP, uint64_t Seed,
                               uint32_t KeyRange, int Steps) {
  Rng R(Seed);
  AMap::Pool AP;
  SMap S(SP);
  AMap A(AP);
  for (int Step = 0; Step != Steps; ++Step) {
    uint32_t Key = static_cast<uint32_t>(R.below(KeyRange));
    switch (R.below(5)) {
    case 0:
    case 1: { // insert/overwrite via alter, checking the old value agrees
      uint64_t Val = R.next();
      uint64_t SOld = ~0ull, AOld = ~0ull;
      S.alter(Key, [&](uint64_t *Old) {
        SOld = Old ? *Old : ~0ull;
        return Val;
      });
      A.alter(Key, [&](uint64_t *Old) {
        AOld = Old ? *Old : ~0ull;
        return Val;
      });
      EXPECT_EQ(SOld, AOld);
      break;
    }
    case 2: { // remove
      std::optional<uint64_t> SG = S.remove(Key);
      std::optional<uint64_t> AG = A.remove(Key);
      EXPECT_EQ(SG, AG);
      break;
    }
    case 3: { // lookup
      uint64_t *SG = S.find(Key);
      uint64_t *AG = A.find(Key);
      ASSERT_EQ(SG == nullptr, AG == nullptr);
      if (SG) {
        EXPECT_EQ(*SG, *AG);
      }
      break;
    }
    default: // occasional clear, resetting to the inline representation
      if (R.below(100) == 0) {
        S.clear();
        A.clear();
      }
    }
    ASSERT_EQ(S.size(), A.size());
    if (Step % 1000 == 0) {
      ASSERT_TRUE(S.checkInvariants());
      expectSameContents(S, A);
    }
  }
  ASSERT_TRUE(S.checkInvariants());
  expectSameContents(S, A);
  S.clear();
  A.clear();
  EXPECT_EQ(SP.liveNodes(), 0u);
  EXPECT_EQ(AP.liveNodes(), 0u);
}

} // namespace

TEST(SmallVarMap, RandomizedDifferentialVsAvlMap) {
  // Key range 0..24 with inline capacity 8: the map crosses the spill
  // boundary back (via clear) and forth many times over the run.
  SMap::Pool SP;
  runRandomizedDifferential(SP, 31337, 25, 30000);
}

TEST(SmallVarMap, RandomizedDifferentialGrowsAndShrinksTables) {
  // Wide key ranges grow tables to hundreds of slots between clears, and
  // removals backward-shift through long clusters. The fixed multipliers
  // force heavy collisions: every key on one home, or homes that wrap.
  {
    SMap::Pool SP;
    runRandomizedDifferential(SP, 7, 1000, 30000);
  }
  {
    SMap::Pool SP(OneHomeMultiplier);
    runRandomizedDifferential(SP, 8, 300, 20000);
  }
  {
    SMap::Pool SP(ModuloMultiplier);
    runRandomizedDifferential(SP, 9, 1000, 30000);
  }
  {
    SMap::Pool SP(~uint64_t(0)); // small keys home at the last slot
    runRandomizedDifferential(SP, 10, 300, 20000);
  }
}

namespace {

/// The keys of spilled map \p M whose home slot is below \p Limit, in
/// slot order.
std::vector<uint32_t> keysHomedBelow(const SMap &M, size_t Limit) {
  std::vector<uint32_t> Out;
  M.forEach([&](uint32_t K, uint64_t) {
    if (M.pool().home(K, SpillLogCap) < Limit)
      Out.push_back(K);
  });
  return Out;
}

} // namespace

TEST(SmallVarMap, ProbeRunWrapsAroundTheTableEnd) {
  SMap::Pool P(ModuloMultiplier);
  SMap M(P);
  AMap::Pool AP;
  AMap A(AP);
  // Filler keys home at 10..16, far from the cluster under test.
  for (uint32_t K = 10; K != 17; ++K) {
    M.set(K, K);
    A.set(K, K);
  }
  // 31, 63 and 95 all home at slot 31, the last one; 0 homes at 0. The
  // run 31, 0, 1, 2 wraps past the table end.
  for (uint32_t K : {31u, 63u, 95u, 0u}) {
    ASSERT_EQ(P.home(K, SpillLogCap), K % 32);
    M.set(K, 100 + K);
    A.set(K, 100 + K);
  }
  ASSERT_TRUE(M.spilled());
  ASSERT_EQ(P.liveNodes(), size_t(1) << SpillLogCap);
  ASSERT_TRUE(M.checkInvariants());
  expectSameContents(M, A);
  for (uint32_t K : {31u, 63u, 95u, 0u})
    ASSERT_NE(M.find(K), nullptr);

  // Removing the run's head shifts each wrapped entry back one slot,
  // across the end again: 63 to the last slot, 95 and 0 down by one.
  ASSERT_EQ(M.remove(31), std::optional<uint64_t>(131));
  A.remove(31);
  ASSERT_TRUE(M.checkInvariants());
  expectSameContents(M, A);
  EXPECT_EQ(M.find(31), nullptr);
  EXPECT_EQ(*M.find(63), 163u);
  EXPECT_EQ(*M.find(95), 195u);
  EXPECT_EQ(*M.find(0), 100u);

  // Drain the rest of the cluster from the middle out.
  for (uint32_t K : {95u, 63u, 0u}) {
    ASSERT_EQ(M.remove(K), std::optional<uint64_t>(100 + K));
    A.remove(K);
    ASSERT_TRUE(M.checkInvariants());
    expectSameContents(M, A);
  }
}

TEST(SmallVarMap, BackwardShiftSkipsEntriesAtTheirHome) {
  SMap::Pool P(ModuloMultiplier);
  SMap M(P);
  AMap::Pool AP;
  AMap A(AP);
  for (uint32_t K = 16; K != 23; ++K) { // filler, homes 16..22
    M.set(K, K);
    A.set(K, K);
  }
  // 3 takes slot 3 and 4 its home, slot 4; 35 (home 3) lands at 5 and
  // 67 (home 3) at 6; 7 sits at its home.
  for (uint32_t K : {3u, 4u, 35u, 67u, 7u}) {
    M.set(K, 100 + K);
    A.set(K, 100 + K);
  }
  ASSERT_TRUE(M.spilled());
  ASSERT_TRUE(M.checkInvariants());
  EXPECT_EQ(keysHomedBelow(M, 16), (std::vector<uint32_t>{3, 4, 35, 67, 7}));

  // Removing 3 leaves 4 where it is (its home is past the hole), moves 35
  // back to slot 3, then 67 to slot 5 and keeps 7 at home.
  ASSERT_EQ(M.remove(3), std::optional<uint64_t>(103));
  A.remove(3);
  ASSERT_TRUE(M.checkInvariants());
  expectSameContents(M, A);
  EXPECT_EQ(keysHomedBelow(M, 16), (std::vector<uint32_t>{35, 4, 67, 7}));
  for (uint32_t K : {4u, 35u, 67u, 7u})
    EXPECT_EQ(*M.find(K), 100u + K);

  // Removing 4 (at home, mid-cluster) pulls 67 into its slot.
  ASSERT_EQ(M.remove(4), std::optional<uint64_t>(104));
  A.remove(4);
  ASSERT_TRUE(M.checkInvariants());
  expectSameContents(M, A);
  EXPECT_EQ(keysHomedBelow(M, 16), (std::vector<uint32_t>{35, 67, 7}));
}

TEST(SmallVarMap, TableGrowsDuringAMerge) {
  // A big map at the edge of load 1/2 takes a spilled source's entries:
  // it must rehash mid-merge without losing or duplicating an entry. One
  // home for every key makes the probe runs as long as they get.
  for (uint64_t Mult :
       {OneHomeMultiplier, ModuloMultiplier, uint64_t(0x9E3779B97F4A7C15)}) {
    SMap::Pool SP(Mult);
    AMap::Pool AP;
    SMap SBig(SP), SSmall(SP);
    AMap ABig(AP), ASmall(AP);
    const size_t Spill = size_t(1) << SpillLogCap;
    for (uint32_t I = 0; I != Spill / 2; ++I) { // exactly load 1/2
      SBig.set(2 * I, I);
      ABig.set(2 * I, I);
    }
    for (uint32_t I = 0; I != 12; ++I) { // every third key is shared
      SSmall.set(3 * I, 1000 + I);
      ASmall.set(3 * I, 1000 + I);
    }
    ASSERT_TRUE(SBig.spilled());
    ASSERT_TRUE(SSmall.spilled());
    ASSERT_EQ(SP.liveNodes(), 2 * Spill);

    auto Join = [](const uint64_t *Old, uint64_t New) {
      return Old ? *Old * 31 + New : New;
    };
    SSmall.forEach([&](uint32_t K, const uint64_t &V) {
      SBig.alter(K, [&](uint64_t *Old) { return Join(Old, V); });
      ASSERT_TRUE(SBig.checkInvariants());
    });
    ASmall.forEach([&](uint32_t K, const uint64_t &V) {
      ABig.alter(K, [&](uint64_t *Old) { return Join(Old, V); });
    });
    SSmall.clear();
    ASmall.clear();
    EXPECT_EQ(SP.liveNodes(), 2 * Spill) << "one doubled table is live";
    ASSERT_TRUE(SBig.checkInvariants());
    expectSameContents(SBig, ABig);

    // The freed blocks are reused: a second round allocates nothing.
    const size_t Allocated = SP.allocatedNodes();
    SBig.clear();
    SMap Again(SP);
    for (uint32_t I = 0; I != Spill; ++I) // one 32-slot, then a 64-slot table
      Again.set(I, I);
    EXPECT_EQ(SP.allocatedNodes(), Allocated);
  }
}

TEST(SmallVarMap, MergeSmallerIntoBiggerMatchesAvl) {
  // Mirror AlphaHasher::combineBinary's merge: fold every entry of a
  // smaller map into a bigger one via alter, for sizes straddling the
  // spill boundary on both sides.
  constexpr unsigned N = SMap::InlineCapacity;
  for (unsigned SmallN : {1u, N - 1, N, N + 1, 3 * N}) {
    for (unsigned BigN : {N - 1, N, N + 1, 4 * N}) {
      SMap::Pool SP;
      AMap::Pool AP;
      SMap SBig(SP), SSmall(SP);
      AMap ABig(AP), ASmall(AP);
      // Overlapping key ranges: every other small key collides with big.
      for (unsigned I = 0; I != BigN; ++I) {
        SBig.set(2 * I, I);
        ABig.set(2 * I, I);
      }
      for (unsigned I = 0; I != SmallN; ++I) {
        SSmall.set(3 * I, 1000 + I);
        ASmall.set(3 * I, 1000 + I);
      }
      auto Join = [](const uint64_t *Old, uint64_t New) {
        return Old ? *Old * 31 + New : New;
      };
      SSmall.forEach([&](uint32_t K, const uint64_t &V) {
        SBig.alter(K, [&](uint64_t *Old) { return Join(Old, V); });
      });
      ASmall.forEach([&](uint32_t K, const uint64_t &V) {
        ABig.alter(K, [&](uint64_t *Old) { return Join(Old, V); });
      });
      SSmall.clear();
      ASmall.clear();
      ASSERT_TRUE(SBig.checkInvariants());
      expectSameContents(SBig, ABig);
    }
  }
}

//===----------------------------------------------------------------------===//
// The property that matters: map policy is unobservable through the
// hasher. Differential AlphaHasher runs at every hash width.
//===----------------------------------------------------------------------===//

template <typename H> class SmallVarMapHasherTest : public ::testing::Test {};
using AllWidths = ::testing::Types<Hash16, Hash32, Hash64, Hash128>;
TYPED_TEST_SUITE(SmallVarMapHasherTest, AllWidths);

TYPED_TEST(SmallVarMapHasherTest, AdaptiveAndAvlPoliciesAgreeOnAllNodes) {
  ExprContext Ctx;
  Rng R(4242 + HashWidth<TypeParam>::Bits);
  AlphaHasher<TypeParam, AvlVarMapPolicy> Avl(Ctx);
  AlphaHasher<TypeParam, AdaptiveVarMapPolicy> Adaptive(Ctx);

  auto ExpectAgree = [&](const Expr *E) {
    std::vector<TypeParam> HA = Avl.hashAll(E);
    std::vector<TypeParam> HB = Adaptive.hashAll(E);
    ASSERT_EQ(HA.size(), HB.size());
    preorder(E, [&](const Expr *N) { EXPECT_EQ(HA[N->id()], HB[N->id()]); });
    EXPECT_EQ(Avl.hashRoot(E), Adaptive.hashRoot(E));
  };

  for (int Trial = 0; Trial != 30; ++Trial) {
    // Balanced and unbalanced families; sizes chosen so per-node maps
    // range from empty through well past the spill threshold.
    uint32_t Size = 1 + static_cast<uint32_t>(R.below(400));
    ExpectAgree(Trial % 2 ? genBalanced(Ctx, R, Size)
                          : genUnbalanced(Ctx, R, Size));
  }
  // A deep term whose maps grow tables to thousands of slots, and the
  // paper's let-chain models.
  ExpectAgree(genUnbalanced(Ctx, R, 1u << 14));
  ExpectAgree(buildMnistCnn(Ctx));
  ExpectAgree(buildGmm(Ctx));
  ExpectAgree(buildBert(Ctx, 12));

  // The operation counters (Lemma 6.1's currency) must agree too: the
  // adaptive map changes representation, not the algorithm.
  EXPECT_EQ(Avl.stats().totalMapOps(), Adaptive.stats().totalMapOps());
}

TEST(SmallVarMapHasher, SpilledFieldsDoNotGrowTheValueStack) {
  // The hasher's value stack holds one map per entry; the table's count
  // and capacity are packed into what the AVL spill used to occupy.
  static_assert(sizeof(SmallVarMap<Name, Hash128>) <= 192);
}

TEST(SmallVarMapHasher, ScratchReuseAllocatesNothingInSteadyState) {
  ExprContext Ctx;
  Rng R(99);
  AlphaHasher<Hash128> Hasher(Ctx);

  // Warm up on the biggest expressions of the workload: a wide one and a
  // deep one, whose root-bound map grows its table through every size...
  const Expr *Big = genBalanced(Ctx, R, 2000);
  const Expr *Deep = genUnbalanced(Ctx, R, 1u << 14);
  std::vector<Hash128> Out;
  for (const Expr *E : {Big, Deep}) {
    Hasher.hashRoot(E);
    Hasher.hashAllInto(E, Out);
  }
  EXPECT_EQ(Hasher.poolLiveNodes(), 0u) << "nodes must return to the pool";
  size_t Warm = Hasher.poolAllocatedNodes();

  // ...then hash a stream of smaller ones: zero new pool allocations.
  for (int I = 0; I != 200; ++I) {
    const Expr *E = I % 2 ? genBalanced(Ctx, R, 100)
                          : genUnbalanced(Ctx, R, 1000);
    Hasher.hashRoot(E);
    Hasher.hashAllInto(E, Out);
  }
  EXPECT_EQ(Hasher.poolAllocatedNodes(), Warm);
  EXPECT_EQ(Hasher.poolLiveNodes(), 0u);

  // Re-hashing the big ones is also free now.
  Hash128 Again = Hasher.hashRoot(Big);
  Hash128 DeepAgain = Hasher.hashRoot(Deep);
  EXPECT_EQ(Hasher.poolAllocatedNodes(), Warm);
  EXPECT_EQ(Again, AlphaHasher<Hash128>(Ctx).hashRoot(Big));
  EXPECT_EQ(DeepAgain, AlphaHasher<Hash128>(Ctx).hashRoot(Deep));
}

TEST(SmallVarMapHasher, HashAllIntoMatchesHashAll) {
  ExprContext Ctx;
  Rng R(7);
  const Expr *E = uniquifyBinders(Ctx, genBalanced(Ctx, R, 300));
  AlphaHasher<Hash128> Hasher(Ctx);
  std::vector<Hash128> Fresh = Hasher.hashAll(E);
  std::vector<Hash128> Reused(3, Hash128(1, 2)); // stale garbage to clear
  Hasher.hashAllInto(E, Reused);
  EXPECT_EQ(Fresh, Reused);
}
