//===- tests/index_concurrency_test.cpp - Concurrent ingest ------------------===//
///
/// \file
/// The index's concurrency contract: the interned class set is a pure
/// function of the corpus, not of the thread schedule. Same corpus at 1
/// and 8 threads must produce identical (hash, count) sets with
/// alpha-equivalent canonical representatives; racing inserts of one
/// class from many threads must account for every member exactly once.
///
//===----------------------------------------------------------------------===//

#include "index/AlphaHashIndex.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Serialize.h"
#include "gen/RandomExpr.h"
#include "index/ThreadPool.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <atomic>
#include <thread>

using namespace hma;

namespace {

/// A corpus with deliberate duplication: Classes distinct expressions,
/// each appearing 1 + (i % 3) times (alpha-renamed, so duplicates are
/// only equal *modulo alpha*).
std::vector<std::string> makeCorpus(unsigned Classes, uint64_t Seed) {
  ExprContext Ctx;
  Rng R(Seed);
  std::vector<std::string> Blobs;
  for (unsigned I = 0; I != Classes; ++I) {
    const Expr *E = I % 2 ? genBalanced(Ctx, R, 24 + I % 32)
                          : genArithmetic(Ctx, R, 20 + I % 16);
    Blobs.push_back(serializeExpr(Ctx, E));
    for (unsigned Dup = 0; Dup != I % 3; ++Dup)
      Blobs.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, E)));
  }
  // Interleave so duplicates of one class do not arrive adjacently (the
  // worst case for racy double-insertion is concurrent first-sights).
  std::vector<std::string> Shuffled;
  Shuffled.reserve(Blobs.size());
  for (size_t Stride = 0; Stride != 7; ++Stride)
    for (size_t I = Stride; I < Blobs.size(); I += 7)
      Shuffled.push_back(std::move(Blobs[I]));
  return Shuffled;
}

} // namespace

TEST(IndexConcurrency, ThreadCountDoesNotChangeTheClassSet) {
  std::vector<std::string> Corpus = makeCorpus(400, 424242);

  AlphaHashIndex<> Serial;
  auto R1 = Serial.insertBatch(Corpus, /*Threads=*/1);
  AlphaHashIndex<> Parallel;
  auto R8 = Parallel.insertBatch(Corpus, /*Threads=*/8);

  EXPECT_EQ(R1.Ingested, Corpus.size());
  EXPECT_EQ(R8.Ingested, Corpus.size());
  EXPECT_EQ(R1.DecodeErrors, 0u);
  EXPECT_EQ(R8.DecodeErrors, 0u);

  auto A = Serial.snapshot();
  auto B = Parallel.snapshot();
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(A.size(), 400u);

  for (size_t I = 0; I != A.size(); ++I) {
    // Identical class keys and sizes...
    EXPECT_EQ(A[I].Hash, B[I].Hash);
    EXPECT_EQ(A[I].Count, B[I].Count);
    // ...and whichever member won the race to become canonical, it is
    // alpha-equivalent to the serial run's choice.
    ExprContext CA, CB;
    DeserializeResult DA = deserializeExpr(CA, A[I].CanonicalBytes);
    DeserializeResult DB = deserializeExpr(CB, B[I].CanonicalBytes);
    ASSERT_TRUE(DA.ok());
    ASSERT_TRUE(DB.ok());
    EXPECT_TRUE(alphaEquivalent(CA, DA.E, CB, DB.E));
  }

  // Same ingest accounting (scheduling cannot create or lose members).
  IndexStats SA = Serial.stats();
  IndexStats SB = Parallel.stats();
  EXPECT_EQ(SA.Inserted, SB.Inserted);
  EXPECT_EQ(SA.NewClasses, SB.NewClasses);
  EXPECT_EQ(SA.Duplicates, SB.Duplicates);
}

TEST(IndexConcurrency, RacingInsertsOfOneClassCountExactly) {
  // Every thread hammers the same alpha-equivalence class (via its own
  // renamed copies and its own context): exactly one class must emerge,
  // with every insert accounted.
  AlphaHashIndex<> Index({/*Shards=*/8, HashSchema::DefaultSeed});
  const unsigned Threads = 8;
  const unsigned PerThread = 50;

  std::string Blob;
  {
    ExprContext Ctx;
    Blob = serializeExpr(Ctx, parseOrDie(Ctx, "(lam (x y) (x (y x)))"));
  }

  std::vector<std::thread> Workers;
  std::atomic<unsigned> Failures{0};
  for (unsigned T = 0; T != Threads; ++T) {
    Workers.emplace_back([&Index, &Blob, &Failures] {
      ExprContext Ctx;
      Rng R(std::hash<std::thread::id>{}(std::this_thread::get_id()));
      DeserializeResult D = deserializeExpr(Ctx, Blob);
      if (!D.ok()) {
        ++Failures;
        return;
      }
      for (unsigned I = 0; I != PerThread; ++I)
        Index.insert(Ctx, alphaRename(Ctx, R, D.E));
    });
  }
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Index.numClasses(), 1u);
  EXPECT_EQ(Index.totalInserted(), uint64_t(Threads) * PerThread);
  IndexStats S = Index.stats();
  EXPECT_EQ(S.NewClasses, 1u);
  EXPECT_EQ(S.Duplicates, uint64_t(Threads) * PerThread - 1);
  EXPECT_EQ(S.VerifiedCollisions, 0u);

  ExprContext Ctx;
  auto Hit = Index.lookupSerialized(Blob);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, uint64_t(Threads) * PerThread);
}

TEST(IndexConcurrency, ConcurrentReadsDuringIngestAreSafe) {
  // Queries racing ingest must never crash or observe a torn class; they
  // may see any prefix of the ingest.
  AlphaHashIndex<> Index;
  std::vector<std::string> Corpus = makeCorpus(200, 99);

  std::atomic<bool> Done{false};
  std::atomic<unsigned> Hits{0};
  std::thread Reader([&] {
    ExprContext Ctx;
    const Expr *Probe = parseOrDie(Ctx, "(lam (q) (q q))");
    while (!Done.load(std::memory_order_acquire)) {
      Index.numClasses();
      Index.stats();
      if (Index.lookup(Ctx, Probe))
        ++Hits;
    }
  });

  Index.insertBatch(Corpus, 4);
  {
    ExprContext Ctx;
    Index.insert(Ctx, parseOrDie(Ctx, "(lam (z) (z z))"));
  }
  Done.store(true, std::memory_order_release);
  Reader.join();

  ExprContext Ctx;
  EXPECT_TRUE(
      Index.lookup(Ctx, parseOrDie(Ctx, "(lam (q) (q q))")).has_value());
  EXPECT_EQ(Index.numClasses(), 201u);
}

TEST(ThreadPoolTest, InlineModeRunsOnCaller) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numWorkers(), 0u);
  std::thread::id Caller = std::this_thread::get_id();
  std::thread::id Ran;
  Pool.run([&] { Ran = std::this_thread::get_id(); });
  Pool.wait();
  EXPECT_EQ(Ran, Caller);
}

TEST(ThreadPoolTest, AllTasksRunExactlyOnceAcrossWorkers) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numWorkers(), 4u);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 1000; ++I)
    Pool.run([&Sum, I] { Sum += I; });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 1000 * 1001 / 2);
  // The pool is reusable after a wait().
  Pool.run([&Sum] { Sum = -1; });
  Pool.wait();
  EXPECT_EQ(Sum.load(), -1);
}

//===----------------------------------------------------------------------===//
// Shared MappedIndex under concurrency
//
// The mapped read path has no locks at all: the mapping is immutable and
// the only shared mutable state is a pair of relaxed counters. N threads
// issuing mixed single `lookup`s and `lookupBatch`es against ONE shared
// MappedIndex must therefore produce answers identical to a
// single-threaded run, while every thread's decode scratch stays bounded
// (contexts are created once and reused, not once per decode) and
// steady-state hashing allocates nothing.
//===----------------------------------------------------------------------===//

#include "index/IndexIO.h"
#include "index/MappedIndex.h"

TEST(MappedIndexConcurrency, MixedFindAndBatchAnswersMatchSingleThreaded) {
  std::vector<std::string> Corpus = makeCorpus(150, 321);
  AlphaHashIndex<> Live;
  Live.insertBatch(Corpus, 1);
  const std::string Image = saveIndexBytes(Live);
  auto Open = MappedIndex<Hash128>::openBytes(Image);
  ASSERT_TRUE(Open.ok()) << Open.Error;
  MappedIndex<Hash128> &Mapped = *Open.Reader;

  // Queries: every member (hits), some fresh expressions (misses), one
  // undecodable blob.
  std::vector<std::string> Queries = Corpus;
  {
    ExprContext Ctx;
    Rng R(5);
    for (int I = 0; I != 10; ++I)
      Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 40)));
  }
  Queries.push_back("garbage");

  // The single-threaded baseline every thread checks against.
  const auto Baseline = Mapped.lookupBatch(Queries, 1);
  size_t BaselineHits = 0;
  for (const auto &R : Baseline)
    BaselineHits += R.has_value();
  ASSERT_GT(BaselineHits, 0u);

  const unsigned Threads = 8;
  std::atomic<unsigned> Mismatches{0};
  std::atomic<uint64_t> BatchSteadyAllocs{0};

  auto SameAsBaseline = [&](size_t I,
                            const std::optional<LookupResult<Hash128>> &R) {
    if (R.has_value() != Baseline[I].has_value())
      return false;
    if (!R)
      return true;
    return R->Hash == Baseline[I]->Hash && R->Count == Baseline[I]->Count &&
           R->CanonicalBytes == Baseline[I]->CanonicalBytes;
  };

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T) {
    Workers.emplace_back([&, T] {
      if (T % 2 == 0) {
        // Batch reader: one thread-pooled bulk lookup over the shared
        // mapping.
        MappedIndex<Hash128>::ReadBatchStats BS;
        auto Results = Mapped.lookupBatch(Queries, 2, &BS);
        for (size_t I = 0; I != Results.size(); ++I)
          if (!SameAsBaseline(I, Results[I]))
            ++Mismatches;
        BatchSteadyAllocs += BS.SteadyPoolNodesAllocated;
      } else {
        // Single-find reader: long-lived private hasher + scratch, one
        // query at a time.
        ExprContext Ctx;
        AlphaHasher<Hash128> Hasher(Ctx, Mapped.schema());
        DecodeScratch Scratch;
        for (size_t I = 0; I != Queries.size(); ++I) {
          DeserializeResult D = deserializeExpr(Ctx, Queries[I]);
          if (!D.ok()) {
            if (Baseline[I].has_value())
              ++Mismatches;
            continue;
          }
          if (!SameAsBaseline(I, Mapped.lookup(Ctx, D.E, Hasher, Scratch)))
            ++Mismatches;
        }
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Mismatches.load(), 0u);

  // Steady-state hashing allocations: zero. Each batch worker's hasher
  // warms up on its first chunk and allocates nothing afterwards.
  EXPECT_EQ(BatchSteadyAllocs.load(), 0u);

  // The shared counters aggregated exactly: every hit on every thread
  // ran one exact verify (b=128: exactly one candidate per hit), and
  // no thread's private verify scratch leaked into another's answer.
  uint64_t ExpectedChecks = uint64_t(Threads + 1) * BaselineHits;
  EXPECT_EQ(Mapped.stats().FallbackChecks - Live.stats().FallbackChecks,
            ExpectedChecks);
  EXPECT_EQ(Mapped.stats().VerifiedCollisions,
            Live.stats().VerifiedCollisions);
}
