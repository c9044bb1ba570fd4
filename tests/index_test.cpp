//===- tests/index_test.cpp - AlphaHashIndex semantics ----------------------===//
///
/// \file
/// The interning service's contract: alpha-equivalent expressions land in
/// one class, inequivalent ones never merge -- even when their hashes
/// collide (the b=16 instantiation forces that case through the real data
/// flow, proving the AlphaEquivalence fallback is load-bearing).
///
//===----------------------------------------------------------------------===//

#include "index/AlphaHashIndex.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Printer.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "gen/RandomExpr.h"
#include "index/CorpusIO.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <map>

using namespace hma;

TEST(AlphaHashIndex, AlphaEquivalentExpressionsMerge) {
  AlphaHashIndex<> Index;
  ExprContext Ctx;
  const Expr *A = parseT(Ctx, "(lam (x) (x x))");
  const Expr *B = parseT(Ctx, "(lam (y) (y y))");
  const Expr *C = parseT(Ctx, "(lam (x) (x (x x)))");

  Hash128 HA = Index.insert(Ctx, A);
  Hash128 HB = Index.insert(Ctx, B);
  Hash128 HC = Index.insert(Ctx, C);

  EXPECT_EQ(HA, HB);
  EXPECT_NE(HA, HC);
  EXPECT_EQ(Index.numClasses(), 2u);
  EXPECT_EQ(Index.totalInserted(), 3u);

  auto Hit = Index.lookup(Ctx, B);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, 2u);
  EXPECT_EQ(Hit->Hash, HA);

  IndexStats S = Index.stats();
  EXPECT_EQ(S.NewClasses, 2u);
  EXPECT_EQ(S.Duplicates, 1u);
  EXPECT_EQ(S.VerifiedCollisions, 0u);
}

TEST(AlphaHashIndex, CanonicalBytesDecodeToEquivalentExpression) {
  AlphaHashIndex<> Index;
  ExprContext Ctx;
  const Expr *A = parseT(Ctx, "(let (x (lam (y) y)) (x x))");
  Index.insert(Ctx, A);

  auto Hit = Index.lookup(Ctx, A);
  ASSERT_TRUE(Hit.has_value());
  ExprContext CanonCtx;
  DeserializeResult R = deserializeExpr(CanonCtx, Hit->CanonicalBytes);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(alphaEquivalent(Ctx, A, CanonCtx, R.E));
}

TEST(AlphaHashIndex, LookupOfAbsentExpressionFails) {
  AlphaHashIndex<> Index;
  ExprContext Ctx;
  Index.insert(Ctx, parseT(Ctx, "(lam (x) x)"));
  EXPECT_FALSE(Index.lookup(Ctx, parseT(Ctx, "(lam (x) (x x))")).has_value());
  // Free variables compare by spelling: `a` is not `b`.
  Index.insert(Ctx, parseT(Ctx, "(f a)"));
  EXPECT_TRUE(Index.lookup(Ctx, parseT(Ctx, "(f a)")).has_value());
  EXPECT_FALSE(Index.lookup(Ctx, parseT(Ctx, "(f b)")).has_value());
}

TEST(AlphaHashIndex, SerializedIngestMatchesDirectIngest) {
  // Every ingest entry point -- the batch, one blob at a time, and the
  // Expr adapter -- must build the reference model's class table: the
  // same hashes, counts and representatives, from the decoder alone.
  ExprContext Gen;
  Rng R(101);
  std::vector<std::string> Blobs;
  for (int I = 0; I != 50; ++I) {
    const Expr *E = genBalanced(Gen, R, 32);
    Blobs.push_back(serializeExpr(Gen, E));
    // Every expression also appears alpha-renamed: 50 classes, 100 members.
    Blobs.push_back(serializeExpr(Gen, alphaRename(Gen, R, E)));
  }
  ReferenceIndex<Hash128> Reference;
  for (const std::string &B : Blobs)
    ASSERT_TRUE(Reference.insert(B));
  const auto Want = Reference.snapshot();
  ASSERT_EQ(Want.size(), 50u);
  for (const auto &C : Want)
    EXPECT_EQ(C.Count, 2u);

  AlphaHashIndex<> Batched;
  auto Result = Batched.insertBatch(Blobs, /*Threads=*/1);
  EXPECT_EQ(Result.Ingested, Blobs.size());
  EXPECT_EQ(Result.DecodeErrors, 0u);
  expectClassSummariesEq(Batched.snapshot(), Want);

  AlphaHashIndex<> OneByOne;
  for (const std::string &B : Blobs)
    ASSERT_TRUE(OneByOne.insertSerialized(B).has_value());
  expectClassSummariesEq(OneByOne.snapshot(), Want);

  AlphaHashIndex<> Direct;
  {
    ExprContext Ctx;
    for (const std::string &B : Blobs) {
      DeserializeResult D = deserializeExpr(Ctx, B);
      ASSERT_TRUE(D.ok());
      Direct.insert(Ctx, D.E);
    }
  }
  expectClassSummariesEq(Direct.snapshot(), Want);
}

TEST(AlphaHashIndex, DecodeErrorsAreCountedNotFatal) {
  AlphaHashIndex<> Index;
  ExprContext Ctx;
  std::vector<std::string> Blobs;
  Blobs.push_back(serializeExpr(Ctx, parseT(Ctx, "(lam (x) x)")));
  Blobs.push_back("garbage that is not HMA1");
  Blobs.push_back(serializeExpr(Ctx, parseT(Ctx, "(lam (x) (x x))")));

  auto Result = Index.insertBatch(Blobs, 1);
  EXPECT_EQ(Result.Ingested, 2u);
  EXPECT_EQ(Result.DecodeErrors, 1u);
  EXPECT_EQ(Index.numClasses(), 2u);
  EXPECT_EQ(Index.stats().DecodeErrors, 1u);

  EXPECT_FALSE(Index.insertSerialized("more garbage").has_value());
  EXPECT_EQ(Index.stats().DecodeErrors, 2u);
}

TEST(AlphaHashIndex, ShardCountRoundsUpAndSpreadsLoad) {
  AlphaHashIndex<> Index({/*Shards=*/48, HashSchema::DefaultSeed});
  EXPECT_EQ(Index.numShards(), 64u);

  ExprContext Gen;
  Rng R(77);
  std::vector<std::string> Blobs;
  for (int I = 0; I != 512; ++I)
    Blobs.push_back(serializeExpr(Gen, genBalanced(Gen, R, 24)));
  Index.insertBatch(Blobs, 1);

  std::vector<size_t> Loads = Index.shardLoads();
  size_t Occupied = 0;
  for (size_t L : Loads)
    Occupied += L != 0;
  // 512 classes over 64 well-mixed stripes: every stripe should be hit
  // (P[some stripe empty] ~ 64 * (63/64)^512 ~ 2e-2... allow a couple).
  EXPECT_GE(Occupied, Loads.size() - 2);
}

//===----------------------------------------------------------------------===//
// Forced collisions at b=16: the fallback is what keeps interning exact.
//===----------------------------------------------------------------------===//

namespace {

/// Birthday-search two non-alpha-equivalent expressions whose *16-bit*
/// alpha-hashes collide. ~300 draws over 2^16 buckets suffices whp; the
/// generous cap keeps the test deterministic-failure-free.
std::pair<const Expr *, const Expr *> findColliding16(ExprContext &Ctx,
                                                      Rng &R,
                                                      AlphaHasher<Hash16> &H) {
  std::map<Hash16, const Expr *> Seen;
  for (int T = 0; T != 20000; ++T) {
    const Expr *E = genBalanced(Ctx, R, 48);
    Hash16 Code = H.hashRoot(E);
    auto [It, Fresh] = Seen.emplace(Code, E);
    if (!Fresh && !alphaEquivalent(Ctx, E, It->second))
      return {It->second, E};
  }
  return {nullptr, nullptr};
}

} // namespace

TEST(AlphaHashIndex16, HashCollisionDoesNotMergeInequivalentClasses) {
  ExprContext Ctx;
  Rng R(1618);
  AlphaHashIndex<Hash16> Index;
  AlphaHasher<Hash16> H(Ctx, Index.schema());

  auto [A, B] = findColliding16(Ctx, R, H);
  ASSERT_NE(A, nullptr) << "no 16-bit collision found -- width suspect";
  ASSERT_EQ(H.hashRoot(A), H.hashRoot(B));
  ASSERT_FALSE(alphaEquivalent(Ctx, A, B));

  Index.insert(Ctx, A);
  Index.insert(Ctx, B);

  // Two classes under one hash: the exact check refused the merge.
  EXPECT_EQ(Index.numClasses(), 2u);
  IndexStats S = Index.stats();
  EXPECT_GE(S.FallbackChecks, 1u);
  EXPECT_GE(S.VerifiedCollisions, 1u);
  EXPECT_EQ(S.Duplicates, 0u);

  // Each expression still resolves to its own class, count 1.
  auto HitA = Index.lookup(Ctx, A);
  auto HitB = Index.lookup(Ctx, B);
  ASSERT_TRUE(HitA.has_value());
  ASSERT_TRUE(HitB.has_value());
  EXPECT_EQ(HitA->Count, 1u);
  EXPECT_EQ(HitB->Count, 1u);
  EXPECT_NE(HitA->CanonicalBytes, HitB->CanonicalBytes);

  // Re-inserting either one merges into the right class despite the
  // shared hash bucket.
  Index.insert(Ctx, B);
  EXPECT_EQ(Index.numClasses(), 2u);
  EXPECT_EQ(Index.lookup(Ctx, B)->Count, 2u);
  EXPECT_EQ(Index.lookup(Ctx, A)->Count, 1u);
}

TEST(AlphaHashIndex16, ManyCollidingInsertsStayExact) {
  // Stress the multi-entry-per-hash path: intern a few hundred random
  // expressions at b=16 (where buckets genuinely collide) and check the
  // class count equals the number of distinct classes per the oracle.
  ExprContext Ctx;
  Rng R(2718);
  AlphaHashIndex<Hash16> Index({/*Shards=*/4, HashSchema::DefaultSeed});

  std::vector<const Expr *> Pool;
  for (int I = 0; I != 150; ++I)
    Pool.push_back(genBalanced(Ctx, R, 40));
  // Duplicate half of them, alpha-renamed.
  for (int I = 0; I != 75; ++I)
    Pool.push_back(alphaRename(Ctx, R, Pool[static_cast<size_t>(I) * 2]));

  for (const Expr *E : Pool)
    Index.insert(Ctx, E);

  // Oracle class count via pairwise grouping on the 128-bit hash (no
  // collisions at that width for 150 small expressions).
  AlphaHasher<Hash128> Wide(Ctx);
  std::map<Hash128, uint64_t> Oracle;
  for (const Expr *E : Pool)
    ++Oracle[Wide.hashRoot(E)];

  EXPECT_EQ(Index.numClasses(), Oracle.size());
  EXPECT_EQ(Index.totalInserted(), Pool.size());

  uint64_t Dupes = 0;
  for (auto &[Code, N] : Oracle)
    Dupes += N - 1;
  EXPECT_EQ(Index.stats().Duplicates, Dupes);
}

//===----------------------------------------------------------------------===//
// Batch queries (the read-mostly, shared-lock mirror of insertBatch)
//===----------------------------------------------------------------------===//

TEST(AlphaHashIndex, LookupBatchMatchesIndividualLookups) {
  ExprContext Gen;
  Rng R(555);
  std::vector<std::string> Corpus;
  for (int I = 0; I != 60; ++I) {
    const Expr *E = genBalanced(Gen, R, 28);
    Corpus.push_back(serializeExpr(Gen, E));
    if (I % 2 == 0)
      Corpus.push_back(serializeExpr(Gen, alphaRename(Gen, R, E)));
  }

  AlphaHashIndex<> Index;
  Index.insertBatch(Corpus, 1);

  // Queries: every corpus member (renamed, so hits are modulo alpha),
  // some absent expressions, and one undecodable blob.
  std::vector<std::string> Queries;
  std::vector<bool> ExpectHit;
  for (int I = 0; I != 40; ++I) {
    ExprContext Ctx;
    DeserializeResult D = deserializeExpr(Ctx, Corpus[I]);
    ASSERT_TRUE(D.ok());
    Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, D.E)));
    ExpectHit.push_back(true);
  }
  for (int I = 0; I != 10; ++I) {
    ExprContext Ctx;
    Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 90)));
    ExpectHit.push_back(false);
  }
  Queries.push_back("definitely not a blob");
  ExpectHit.push_back(false);

  for (unsigned Threads : {1u, 4u}) {
    auto Results = Index.lookupBatch(Queries, Threads);
    ASSERT_EQ(Results.size(), Queries.size());
    for (size_t I = 0; I != Queries.size(); ++I) {
      EXPECT_EQ(Results[I].has_value(), ExpectHit[I]) << "query " << I;
      if (!Results[I])
        continue;
      // Each batch answer must equal the one-at-a-time answer.
      auto Single = Index.lookupSerialized(Queries[I]);
      ASSERT_TRUE(Single.has_value());
      EXPECT_EQ(Results[I]->Hash, Single->Hash);
      EXPECT_EQ(Results[I]->Count, Single->Count);
      EXPECT_EQ(Results[I]->CanonicalBytes, Single->CanonicalBytes);
    }
  }
}

TEST(AlphaHashIndex, LookupBatchOnEmptyIndexAndEmptyQuerySet) {
  AlphaHashIndex<> Index;
  EXPECT_TRUE(Index.lookupBatch({}, 4).empty());
  ExprContext Ctx;
  std::vector<std::string> Queries = {
      serializeExpr(Ctx, parseT(Ctx, "(lam (x) x)"))};
  auto Results = Index.lookupBatch(Queries, 2);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_FALSE(Results[0].has_value());
}

TEST(AlphaHashIndex, LookupBatchDoesNotPerturbIngestStats) {
  ExprContext Ctx;
  AlphaHashIndex<> Index;
  std::vector<std::string> Blobs = {
      serializeExpr(Ctx, parseT(Ctx, "(lam (x) (x x))")),
      serializeExpr(Ctx, parseT(Ctx, "(lam (x) x)"))};
  Index.insertBatch(Blobs, 1);
  IndexStats Before = Index.stats();

  auto Results = Index.lookupBatch(Blobs, 1);
  EXPECT_TRUE(Results[0] && Results[1]);

  IndexStats After = Index.stats();
  EXPECT_EQ(After.Inserted, Before.Inserted);
  EXPECT_EQ(After.NewClasses, Before.NewClasses);
  EXPECT_EQ(After.Duplicates, Before.Duplicates);
  EXPECT_EQ(After.DecodeErrors, Before.DecodeErrors);
  // The read path does account its exact-verification probes.
  EXPECT_GE(After.FallbackChecks, Before.FallbackChecks + 2);
}

//===----------------------------------------------------------------------===//
// The zero-allocation claim: steady-state ingest carves no pool nodes
//===----------------------------------------------------------------------===//

TEST(AlphaHashIndex, SteadyStateIngestPerformsZeroPoolAllocations) {
  // Corpus whose LARGEST expression comes first: the single worker warms
  // its hasher scratch on chunk 0, after which every further chunk must
  // recycle pooled map nodes instead of allocating.
  ExprContext Gen;
  Rng R(808);
  std::vector<std::string> Blobs;
  Blobs.push_back(serializeExpr(Gen, genBalanced(Gen, R, 600)));
  Blobs.push_back(serializeExpr(Gen, genUnbalanced(Gen, R, 600)));
  for (int I = 0; I != 200; ++I)
    Blobs.push_back(serializeExpr(Gen, genBalanced(Gen, R, 40)));

  AlphaHashIndex<> Index;
  auto Batch = Index.insertBatch(Blobs, /*Threads=*/1);
  EXPECT_EQ(Batch.Ingested, Blobs.size());
  EXPECT_EQ(Batch.SteadyPoolNodesAllocated, 0u)
      << "ingest allocated pool nodes after the warm-up chunk";
  // The warm-up itself is visible (the 600-node expressions spill past
  // the inline capacity), so the total is positive.
  EXPECT_GT(Batch.PoolNodesAllocated, 0u);
}

//===----------------------------------------------------------------------===//
// The exact verifier: the byte walk against decode + alphaEquivalent
//===----------------------------------------------------------------------===//

namespace {

/// What \ref verifyCandidateBytes must equal: the candidate decodes and
/// the oracle accepts it.
bool decodeThenOracle(const ExprContext &QCtx, const Expr *Q,
                      std::string_view Bytes) {
  ExprContext Ctx;
  DeserializeResult D = deserializeExpr(Ctx, Bytes);
  return D.ok() && alphaEquivalent(QCtx, Q, Ctx, D.E);
}

/// Rebuild \p E with the preorder node numbered \p K renamed (a Var's
/// name or a binder, drawn from the same v0..v{Pool-1} pool) or, for a
/// constant, bumped: near misses, and sometimes accidental equivalents.
const Expr *mutateOne(ExprContext &Ctx, Rng &R, const Expr *E, int64_t &K,
                      unsigned Pool) {
  const bool Hit = K-- == 0;
  auto Pick = [&](Name Old) {
    return Hit ? Ctx.name("v" + std::to_string(R.below(Pool))) : Old;
  };
  switch (E->kind()) {
  case ExprKind::Var:
    return Ctx.var(Pick(E->varName()));
  case ExprKind::Const:
    return Ctx.intConst(E->constValue() + (Hit ? 1 : 0));
  case ExprKind::Lam: {
    Name B = Pick(E->lamBinder());
    return Ctx.lam(B, mutateOne(Ctx, R, E->lamBody(), K, Pool));
  }
  case ExprKind::App: {
    const Expr *F = mutateOne(Ctx, R, E->appFun(), K, Pool);
    return Ctx.app(F, mutateOne(Ctx, R, E->appArg(), K, Pool));
  }
  case ExprKind::Let: {
    Name B = Pick(E->letBinder());
    const Expr *Bound = mutateOne(Ctx, R, E->letBound(), K, Pool);
    return Ctx.let(B, Bound, mutateOne(Ctx, R, E->letBody(), K, Pool));
  }
  }
  return E;
}

/// The query blob the byte path verifies with for \p E: its serialized
/// bytes when the byte driver proves them, else their canonicalized copy
/// (\ref detail::hashQuery).
std::string provenQuery(const ExprContext &Ctx, const Expr *E) {
  ExprContext Boot;
  AlphaHasher<Hash64> Prover(Boot);
  const std::string Blob = serializeExpr(Ctx, E);
  std::string Canonical;
  std::string_view Query = Blob;
  EXPECT_TRUE(detail::hashQuery(Prover, Query, Canonical).has_value());
  return std::string(Query);
}

} // namespace

TEST(VerifyCandidateBytes, AgreesWithDecodeAndOracleOnRandomPairs) {
  // Query terms are shadow-heavy, so about half of them take the byte
  // path's canonicalization before they become a query blob. Candidates
  // are the shadowed original (equivalent), a one-node mutation of it
  // (near miss), or an unrelated term of the same size. One scratch
  // serves every pair, so stale per-walk state would show up.
  Rng R(2105);
  DecodeScratch Scratch;
  uint64_t Accepted = 0, Refuted = 0;
  for (unsigned I = 0; I != 32000; ++I) {
    ExprContext Ctx;
    const unsigned Pool = 2 + static_cast<unsigned>(R.below(5));
    const unsigned Size = 1 + static_cast<unsigned>(R.below(24));
    const Expr *T = genShadowHeavy(Ctx, R, Size, Pool);
    const Expr *C = T;
    if (I % 3 == 1) {
      int64_t K = static_cast<int64_t>(R.below(T->treeSize()));
      C = mutateOne(Ctx, R, T, K, Pool);
    } else if (I % 3 == 2) {
      C = genShadowHeavy(Ctx, R, Size, Pool);
    }
    const std::string Bytes = serializeExpr(Ctx, C);
    const bool Want = decodeThenOracle(Ctx, T, Bytes);
    ASSERT_EQ(verifyCandidateBytes(provenQuery(Ctx, T), Bytes, Scratch), Want)
        << printExpr(Ctx, T) << " vs " << printExpr(Ctx, C);
    (Want ? Accepted : Refuted) += 1;
  }
  EXPECT_GT(Accepted, 10000u);
  EXPECT_GT(Refuted, 10000u);
}

TEST(VerifyCandidateBytes, LetScopingSpellingsAndMalformedBytes) {
  const std::pair<const char *, const char *> Pairs[] = {
      {"(let (y x) y)", "(let (x x) x)"}, // bound x is the free x
      {"(let (y x) x)", "(let (x x) x)"}, // body x is the binder
      {"(let (y (f y0)) y)", "(let (x (f x)) x)"},
      {"(lam (a b) b)", "(lam (x x) x)"}, // inner binder wins
      {"(lam (a b) a)", "(lam (x x) x)"},
      {"(lam (a) (f (lam (b) b) a))", "(lam (x) (f (lam (x) x) x))"},
      {"(lam (a) (f (lam (b) a) a))", "(lam (x) (f (lam (x) x) x))"},
      {"(f (lam (a) a) x)", "(f (lam (x) x) x)"}, // x free after scope
      {"(f (lam (a) a) a)", "(f (lam (x) x) x)"},
      {"(let (a 1) (let (b a) b))", "(let (x 1) (let (x x) x))"},
      {"(let (a 1) (let (b a) a))", "(let (x 1) (let (x x) x))"},
      {"(f f)", "(f g)"},
      {"(lam (p) (p 3))", "(lam (q) (q -3))"},
  };
  DecodeScratch Scratch;
  for (const auto &[QSrc, CSrc] : Pairs) {
    ExprContext Ctx;
    const Expr *Q = parseT(Ctx, QSrc);
    const std::string Bytes = serializeExpr(Ctx, parseT(Ctx, CSrc));
    EXPECT_EQ(verifyCandidateBytes(provenQuery(Ctx, Q), Bytes, Scratch),
              decodeThenOracle(Ctx, Q, Bytes))
        << QSrc << " vs " << CSrc;
  }
  ExprContext Ctx;
  auto Blob = [&](const char *Src) {
    return provenQuery(Ctx, parseT(Ctx, Src));
  };
  // Spot-check the oracle's verdicts themselves on the tricky rows.
  EXPECT_TRUE(verifyCandidateBytes(
      Blob("(let (y x) y)"), serializeExpr(Ctx, parseT(Ctx, "(let (x x) x)")),
      Scratch));
  EXPECT_FALSE(verifyCandidateBytes(
      Blob("(lam (a b) a)"), serializeExpr(Ctx, parseT(Ctx, "(lam (x x) x)")),
      Scratch));

  // Repeated candidate spellings merge as the decoder merges them. Names
  // {a, a}: both ids are one name, so `lam 0 (lam 1 (var 0))` is
  // (lam (a) (lam (a) a)) -- the variable is the *inner* binder's.
  const std::string Nested =
      handBlob({"a", "a"}, {TagLam, 0, TagLam, 1, TagVar, 0});
  EXPECT_TRUE(verifyCandidateBytes(Blob("(lam (p q) q)"), Nested, Scratch));
  EXPECT_FALSE(verifyCandidateBytes(Blob("(lam (p q) p)"), Nested, Scratch));
  // Free uses of two ids with one spelling are one free variable.
  const std::string Free = handBlob({"f", "f"}, {TagApp, TagVar, 0, TagVar, 1});
  EXPECT_TRUE(verifyCandidateBytes(Blob("(f f)"), Free, Scratch));
  EXPECT_FALSE(verifyCandidateBytes(Blob("(f g)"), Free, Scratch));
  // A binder on one id captures uses of the other.
  const std::string Capture =
      handBlob({"x", "x"}, {TagApp, TagLam, 0, TagVar, 1, TagVar, 1});
  EXPECT_TRUE(verifyCandidateBytes(Blob("((lam (p) p) x)"), Capture, Scratch));
  EXPECT_FALSE(
      verifyCandidateBytes(Blob("((lam (p) x) x)"), Capture, Scratch));
  for (const char *Src : {"(lam (p q) q)", "(lam (p q) p)", "(f f)", "(f g)",
                          "((lam (p) p) x)", "((lam (p) x) x)"}) {
    const Expr *Q = parseT(Ctx, Src);
    for (const std::string *Candidate : {&Nested, &Free, &Capture})
      EXPECT_EQ(verifyCandidateBytes(provenQuery(Ctx, Q), *Candidate, Scratch),
                decodeThenOracle(Ctx, Q, *Candidate))
          << Src;
  }

  // Malformed candidates refute against a query they would otherwise
  // match, as a failed decode does.
  const std::string Query = Blob("(let (k 7) (lam (x y) (f x k y)))");
  ASSERT_TRUE(verifyCandidateBytes(Query, Query, Scratch));
  std::vector<std::pair<std::string, std::string>> Bad;
  for (size_t Len = 0; Len != Query.size(); ++Len)
    Bad.push_back(
        {"truncated to " + std::to_string(Len), Query.substr(0, Len)});
  Bad.push_back({"trailing byte", Query + '\0'});
  Bad.push_back({"empty view", std::string()});
  // Out-of-range id and bad tag, on a blob whose only other defect they
  // are: (lam 0 (var 0)) with one name.
  Bad.push_back({"out-of-range id", handBlob({"x"}, {TagLam, 0, TagVar, 1})});
  Bad.push_back(
      {"out-of-range binder", handBlob({"x"}, {TagLam, 3, TagVar, 0})});
  Bad.push_back({"bad tag", handBlob({"x"}, {TagLam, 0, 0x7F})});
  Bad.push_back({"over-long varint",
                 handBlob({"x"}, {TagLam, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                  0x80, 0x80, 0x80, 0x80, TagVar, 0})});
  Bad.push_back({"truncated constant", handBlob({}, {TagConst, 0x80})});
  Bad.push_back({"name count past the end", handBlob({}, {}) + "\x7F"});
  for (const auto &[What, Bytes] : Bad) {
    ExprContext D;
    EXPECT_FALSE(deserializeExpr(D, Bytes).ok()) << What;
    EXPECT_FALSE(verifyCandidateBytes(Query, Bytes, Scratch)) << What;
  }
  // The same malformed ids refute against a query they would otherwise
  // match: (lam (p) p) vs lam 0 (var 1) with one name.
  const std::string Id = Blob("(lam (p) p)");
  EXPECT_TRUE(verifyCandidateBytes(
      Id, handBlob({"x"}, {TagLam, 0, TagVar, 0}), Scratch));
  EXPECT_FALSE(verifyCandidateBytes(
      Id, handBlob({"x"}, {TagLam, 0, TagVar, 1}), Scratch));
  EXPECT_FALSE(verifyCandidateBytes(
      Id, handBlob({"x"}, {TagLam, 0, TagVar, 0, TagVar}), Scratch));
  EXPECT_FALSE(verifyCandidateBytes(
      Id, handBlob({"x"}, {TagLam, 0, 0x7F}), Scratch));
}

//===----------------------------------------------------------------------===//
// The byte path at b=16 against the reference model
//===----------------------------------------------------------------------===//

TEST(AlphaHashIndex16, ByteReadPathAnswersAndChecksLikeTheReference) {
  // Buckets genuinely collide at 16 bits, so many queries verify several
  // candidates. The byte path (lookupBatch, lookupSerialized) must give
  // each query the reference model's answer, and run exactly the checks
  // the model counts -- one per class stored under the query's hash
  // before its own -- including for queries it canonicalized.
  ExprContext Ctx;
  Rng R(1729);
  std::vector<std::string> Corpus, Queries;
  for (int I = 0; I != 2000; ++I)
    Corpus.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 40)));
  for (size_t I = 0; I != Corpus.size(); ++I) {
    DeserializeResult D = deserializeExpr(Ctx, Corpus[I]);
    ASSERT_TRUE(D.ok());
    const Expr *E = alphaRename(Ctx, R, D.E);
    if (I % 3 == 1) // shadow a binder: a non-proven blob
      E = Ctx.lam(Ctx.name("s"), Ctx.lam(Ctx.name("s"), E));
    Queries.push_back(serializeExpr(Ctx, E));
  }
  for (int I = 0; I != 500; ++I)
    Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 40)));

  AlphaHashIndex<Hash16> Index({4, HashSchema::DefaultSeed});
  Index.insertBatch(Corpus, 1);
  ReferenceIndex<Hash16> Reference;
  for (const std::string &B : Corpus)
    ASSERT_TRUE(Reference.insert(B));
  expectClassSummariesEq(Index.snapshot(), Reference.snapshot());

  std::vector<std::optional<LookupResult<Hash16>>> Want, Single;
  uint64_t WantChecks = 0, WantRefuted = 0;
  for (const std::string &Q : Queries) {
    Want.push_back(Reference.lookup(Q));
    const auto [Checks, Refuted] = Reference.checks(Q);
    WantChecks += Checks;
    WantRefuted += Refuted;
  }
  EXPECT_GT(WantChecks, Queries.size() / 2);
  EXPECT_GT(WantRefuted, 0u);

  // Each pass must add exactly the model's checks to the counters.
  const IndexStats Before = Index.stats();
  auto Batch = Index.lookupBatch(Queries, 3);
  const IndexStats AfterBatch = Index.stats();
  for (const std::string &Q : Queries)
    Single.push_back(Index.lookupSerialized(Q));
  const IndexStats AfterSingle = Index.stats();
  expectSameLookupAnswers(Batch, Want, "batch vs reference");
  expectSameLookupAnswers(Single, Want, "single vs reference");
  EXPECT_EQ(AfterBatch.FallbackChecks - Before.FallbackChecks, WantChecks);
  EXPECT_EQ(AfterBatch.VerifiedCollisions - Before.VerifiedCollisions,
            WantRefuted);
  EXPECT_EQ(AfterSingle.FallbackChecks - AfterBatch.FallbackChecks,
            WantChecks);
  EXPECT_EQ(AfterSingle.VerifiedCollisions - AfterBatch.VerifiedCollisions,
            WantRefuted);
}
