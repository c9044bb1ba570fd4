//===- tests/mapped_index_test.cpp - Zero-copy mapped read path -------------===//
///
/// \file
/// The differential contract of the three `HMAI` backends: the same
/// query stream driven through (1) the live \ref AlphaHashIndex that was
/// saved, (2) the live copy restored from the verified image
/// (`AlphaHashIndex::restore`), and (3) the zero-copy \ref MappedIndex
/// over the same image must produce
/// byte-identical answers -- hits, misses, forced b=16 collision
/// fallbacks, batch and single-shot -- and matching stats. Also pins the
/// zero-copy claims themselves: results view the image (no blob copies),
/// open does no per-class work, and steady-state batch reads allocate
/// nothing.
///
//===----------------------------------------------------------------------===//

#include "index/MappedIndex.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Serialize.h"
#include "gen/RandomExpr.h"
#include "index/IndexIO.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace hma;

namespace {

/// A corpus with alpha-renamed duplicates, largest expression first (so
/// batch workers warm their scratch on the worst case and the
/// steady-allocation assertions below are deterministic).
std::vector<std::string> dupCorpus(unsigned Classes, uint64_t Seed) {
  ExprContext Gen;
  Rng R(Seed);
  std::vector<std::string> Blobs;
  Blobs.push_back(serializeExpr(Gen, genBalanced(Gen, R, 120)));
  for (unsigned I = 1; I != Classes; ++I) {
    const Expr *E = genBalanced(Gen, R, 24 + I % 40);
    Blobs.push_back(serializeExpr(Gen, E));
    if (I % 3 == 0)
      Blobs.push_back(serializeExpr(Gen, alphaRename(Gen, R, E)));
  }
  return Blobs;
}

/// Queries over \p Corpus: renamed members (hits modulo alpha), fresh
/// expressions (misses), and one undecodable blob.
std::vector<std::string> queriesOver(const std::vector<std::string> &Corpus,
                                     uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::string> Queries;
  for (size_t I = 0; I < Corpus.size(); I += 2) {
    ExprContext Ctx;
    DeserializeResult D = deserializeExpr(Ctx, Corpus[I]);
    EXPECT_TRUE(D.ok());
    Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, D.E)));
  }
  for (int I = 0; I != 12; ++I) {
    ExprContext Ctx;
    Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 72)));
  }
  Queries.push_back("garbage query blob");
  return Queries;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: live vs restored vs mapped, b=128
//===----------------------------------------------------------------------===//

TEST(MappedIndex, DifferentialAnswersAcrossAllThreeReadPathsAtB128) {
  AlphaHashIndex<> Live({/*Shards=*/16, HashSchema::DefaultSeed});
  std::vector<std::string> Corpus = dupCorpus(60, 2025);
  Live.insertBatch(Corpus, /*Threads=*/1);
  ASSERT_GT(Live.stats().Duplicates, 0u);

  std::string Image = saveIndexBytes(Live);
  auto Restored = restoreVerified<Hash128>(Image);
  ASSERT_NE(Restored, nullptr);
  auto Mapped = MappedIndex<Hash128>::openBytes(Image);
  ASSERT_TRUE(Mapped.ok()) << Mapped.Error << " at byte " << Mapped.ErrorPos;
  EXPECT_TRUE(Mapped.Reader->verify());

  // The class tables agree before any query runs.
  expectClassSummariesEq<Hash128>(Live.snapshot(), Mapped.Reader->snapshot());
  expectClassSummariesEq<Hash128>(Restored->snapshot(),
                                  Mapped.Reader->snapshot());
  EXPECT_EQ(Live.retainedBytes(), Mapped.Reader->retainedBytes());
  EXPECT_EQ(Live.shardLoads(), Mapped.Reader->shardLoads());

  // The top-N selection (what `stats` prints) agrees across all three
  // backends, winners' blobs included.
  auto TopLive = Live.largestClasses(5);
  auto TopRestored = Restored->largestClasses(5);
  auto TopMapped = Mapped.Reader->largestClasses(5);
  ASSERT_EQ(TopLive.size(), 5u);
  EXPECT_GT(TopLive.front().Count, 1u);
  expectClassSummariesEq<Hash128>(TopLive, TopMapped);
  expectClassSummariesEq<Hash128>(TopRestored, TopMapped);

  std::vector<std::string> Queries = queriesOver(Corpus, 7);
  for (unsigned Threads : {1u, 4u}) {
    auto FromLive = Live.lookupBatch(Queries, Threads);
    auto FromRestored = Restored->lookupBatch(Queries, Threads);
    auto FromMapped = Mapped.Reader->lookupBatch(Queries, Threads);
    expectSameLookupAnswers(FromLive, FromMapped, "live-vs-mapped");
    expectSameLookupAnswers(FromRestored, FromMapped, "restored-vs-mapped");
    size_t Hits = 0;
    for (const auto &R : FromMapped)
      Hits += R.has_value();
    EXPECT_GT(Hits, 0u);
    EXPECT_LT(Hits, Queries.size());
  }

  // Single-shot serialized lookups agree blob by blob too. (Every
  // backend sees the same stream so the stats comparison below stays
  // meaningful.)
  for (const std::string &Q : Queries) {
    auto L = Live.lookupSerialized(Q);
    auto D = Restored->lookupSerialized(Q);
    auto M = Mapped.Reader->lookupSerialized(Q);
    ASSERT_EQ(L.has_value(), M.has_value());
    ASSERT_EQ(D.has_value(), M.has_value());
    if (L) {
      EXPECT_EQ(L->Hash, M->Hash);
      EXPECT_EQ(L->Count, M->Count);
      EXPECT_EQ(L->CanonicalBytes, M->CanonicalBytes);
      EXPECT_EQ(D->CanonicalBytes, M->CanonicalBytes);
    }
  }

  // After identical query streams, all three backends report identical
  // stats (at b=128 every bucket holds one candidate, so even the
  // fallback-check counts cannot depend on probe order).
  expectStatsEq(Live.stats(), Mapped.Reader->stats());
  expectStatsEq(Restored->stats(), Mapped.Reader->stats());
}

//===----------------------------------------------------------------------===//
// Differential at b=16: forced collisions exercise the exact-verify
// fallback against file bytes
//===----------------------------------------------------------------------===//

namespace {

/// Birthday-search two non-alpha-equivalent expressions whose 16-bit
/// alpha-hashes collide (as in tests/index_test.cpp).
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

TEST(MappedIndex16, ForcedCollisionsResolveIdenticallyToTheRestoredIndex) {
  ExprContext Ctx;
  Rng R(4242);
  AlphaHashIndex<Hash16> Live({/*Shards=*/4, HashSchema::DefaultSeed});
  AlphaHasher<Hash16> H(Ctx, Live.schema());

  auto [A, B] = findColliding16(Ctx, R, H);
  ASSERT_NE(A, nullptr) << "no 16-bit collision found -- width suspect";
  Live.insert(Ctx, A);
  Live.insert(Ctx, B);
  Live.insert(Ctx, alphaRename(Ctx, R, A));
  for (int I = 0; I != 40; ++I)
    Live.insert(Ctx, genBalanced(Ctx, R, 24));

  std::string Image = saveIndexBytes(Live);
  auto Mapped = MappedIndex<Hash16>::openBytes(Image);
  ASSERT_TRUE(Mapped.ok()) << Mapped.Error;
  EXPECT_TRUE(Mapped.Reader->verify());

  // Both colliding classes resolve separately on the mapped reader: the
  // fallback decodes the mapped bytes and refuses the wrong merge.
  auto HitA = Mapped.Reader->lookup(Ctx, A);
  auto HitB = Mapped.Reader->lookup(Ctx, B);
  ASSERT_TRUE(HitA.has_value());
  ASSERT_TRUE(HitB.has_value());
  EXPECT_EQ(HitA->Hash, HitB->Hash);
  EXPECT_EQ(HitA->Count, 2u);
  EXPECT_EQ(HitB->Count, 1u);
  EXPECT_NE(HitA->CanonicalBytes, HitB->CanonicalBytes);
  // At least one of the two probes had to refute a same-hash candidate.
  EXPECT_GE(Mapped.Reader->stats().VerifiedCollisions,
            Live.stats().VerifiedCollisions + 1);

  // Restored and mapped probe candidates in the same (file) order, so
  // their stats agree exactly after identical query streams; answers
  // agree with the live index as well.
  std::vector<std::string> Queries;
  Queries.push_back(serializeExpr(Ctx, A));
  Queries.push_back(serializeExpr(Ctx, B));
  Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, A)));
  Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, B)));
  Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 48)));

  // Reset the mapped reader's counters by reopening: the lookups above
  // already bumped them.
  auto Mapped2 = MappedIndex<Hash16>::openBytes(Image);
  ASSERT_TRUE(Mapped2.ok());
  auto Restored = restoreVerified<Hash16>(Image);
  ASSERT_NE(Restored, nullptr);

  auto FromRestored = Restored->lookupBatch(Queries, 2);
  auto FromMapped = Mapped2.Reader->lookupBatch(Queries, 2);
  auto FromLive = Live.lookupBatch(Queries, 2);
  expectSameLookupAnswers(FromRestored, FromMapped, "restored-vs-mapped");
  expectSameLookupAnswers(FromLive, FromMapped, "live-vs-mapped");
  expectStatsEq(Restored->stats(), Mapped2.Reader->stats());
}

//===----------------------------------------------------------------------===//
// The zero-copy claims themselves
//===----------------------------------------------------------------------===//

TEST(MappedIndex, ResultsViewTheImageAndBatchReadsVerifyOncePerHit) {
  AlphaHashIndex<> Live;
  std::vector<std::string> Corpus = dupCorpus(50, 11);
  Live.insertBatch(Corpus, 1);
  std::string Image = saveIndexBytes(Live);
  auto Mapped = MappedIndex<Hash128>::openBytes(Image);
  ASSERT_TRUE(Mapped.ok());

  // Immediately after an open, no per-class work has happened: the
  // reader has run no fallback decodes (open is O(shards), not
  // O(classes)) and its stats are exactly the header's.
  expectStatsEq(Mapped.Reader->stats(), Live.stats());

  // A hit's canonical bytes are a view into the image, not a copy.
  std::string_view ImageView = Mapped.Reader->imageBytes();
  auto Hit = Mapped.Reader->lookupSerialized(Corpus.front());
  ASSERT_TRUE(Hit.has_value());
  const char *Data = Hit->CanonicalBytes.data();
  EXPECT_GE(Data, ImageView.data());
  EXPECT_LE(Data + Hit->CanonicalBytes.size(),
            ImageView.data() + ImageView.size());

  // Batch reads: one exact verify per hit, and zero steady-state pool
  // allocations once each worker is past its first chunk.
  MappedIndex<Hash128>::ReadBatchStats BS;
  const uint64_t ChecksBefore = Mapped.Reader->stats().FallbackChecks;
  auto Results = Mapped.Reader->lookupBatch(Corpus, /*Threads=*/1, &BS);
  uint64_t Hits = 0;
  for (const auto &R : Results)
    Hits += R.has_value();
  EXPECT_EQ(Hits, Corpus.size()); // every member is present
  EXPECT_EQ(BS.Hits, Hits);
  // b=128: exactly one candidate per probe, none refuted.
  EXPECT_EQ(Mapped.Reader->stats().FallbackChecks - ChecksBefore, Hits);
  EXPECT_EQ(Mapped.Reader->stats().VerifiedCollisions,
            Live.stats().VerifiedCollisions);
  EXPECT_EQ(BS.SteadyPoolNodesAllocated, 0u)
      << "hashing in steady state must not allocate";
  // (PoolNodesAllocated may legitimately be 0: the adaptive small-map
  // policy keeps these expressions' variable maps inline, so not even
  // warm-up needs the pool.)
}

TEST(MappedIndex, FileOpenMmapAndBufferedFallbackAnswerIdentically) {
  AlphaHashIndex<> Live;
  std::vector<std::string> Corpus = dupCorpus(30, 5);
  Live.insertBatch(Corpus, 1);
  std::string Image = saveIndexBytes(Live);

  const std::string Path = "mapped_index_test.tmp.hmai";
  std::string Error;
  ASSERT_TRUE(writeFileReplacing(Path, Image, &Error)) << Error;

  auto ViaMmap = MappedIndex<Hash128>::open(Path);
  auto ViaBuffer = MappedIndex<Hash128>::open(Path, /*ForceBuffered=*/true);
  ASSERT_TRUE(ViaMmap.ok()) << ViaMmap.Error;
  ASSERT_TRUE(ViaBuffer.ok()) << ViaBuffer.Error;
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(ViaMmap.Reader->isFileMapped());
  EXPECT_STREQ(ViaMmap.Reader->backendName(), "mapped");
#endif
  EXPECT_FALSE(ViaBuffer.Reader->isFileMapped());
  EXPECT_STREQ(ViaBuffer.Reader->backendName(), "mapped (buffered)");

  std::vector<std::string> Queries = queriesOver(Corpus, 3);
  expectSameLookupAnswers(ViaMmap.Reader->lookupBatch(Queries, 2),
                             ViaBuffer.Reader->lookupBatch(Queries, 2),
                             "mmap-vs-buffered");
  expectSameLookupAnswers(ViaMmap.Reader->lookupBatch(Queries, 2),
                             Live.lookupBatch(Queries, 2), "mmap-vs-live");

  std::remove(Path.c_str());
  // A missing file's diagnostic carries the errno text, not just the name.
  auto Missing = MappedIndex<Hash128>::open(Path);
  EXPECT_FALSE(Missing.ok());
  EXPECT_NE(Missing.Error.find("cannot open '" + Path +
                               "': No such file or directory"),
            std::string::npos)
      << Missing.Error;
}

//===----------------------------------------------------------------------===//
// Empty and single-class indexes round-trip through the mapped reader
// and the restored copy
//===----------------------------------------------------------------------===//

TEST(MappedIndex, EmptyIndexServesMappedAndRestored) {
  AlphaHashIndex<> Live({/*Shards=*/8, HashSchema::DefaultSeed});
  std::string Image = saveIndexBytes(Live); // header + directory only

  auto Restored = restoreVerified<Hash128>(Image);
  ASSERT_NE(Restored, nullptr);
  auto Mapped = MappedIndex<Hash128>::openBytes(Image);
  ASSERT_TRUE(Mapped.ok()) << Mapped.Error;
  EXPECT_TRUE(Mapped.Reader->verify());

  EXPECT_EQ(Mapped.Reader->numClasses(), 0u);
  EXPECT_EQ(Mapped.Reader->retainedBytes(), 0u);
  EXPECT_TRUE(Mapped.Reader->snapshot().empty());

  ExprContext Ctx;
  const Expr *Q = parseT(Ctx, "(lam (x) (x x))");
  EXPECT_FALSE(Mapped.Reader->lookup(Ctx, Q).has_value());
  EXPECT_FALSE(Restored->lookup(Ctx, Q).has_value());

  // Batch queries against an empty index: all absent, on both backends,
  // at both thread counts; an empty *query list* is also fine.
  std::vector<std::string> Queries;
  Queries.push_back(serializeExpr(Ctx, Q));
  Queries.push_back("garbage");
  for (unsigned Threads : {1u, 4u}) {
    for (const auto &R : Mapped.Reader->lookupBatch(Queries, Threads))
      EXPECT_FALSE(R.has_value());
    for (const auto &R : Restored->lookupBatch(Queries, Threads))
      EXPECT_FALSE(R.has_value());
    EXPECT_TRUE(Mapped.Reader->lookupBatch({}, Threads).empty());
    EXPECT_TRUE(Restored->lookupBatch({}, Threads).empty());
  }
  expectStatsEq(Restored->stats(), Mapped.Reader->stats());
}

TEST(MappedIndex, SingleClassIndexRoundTripsMappedAndRestored) {
  ExprContext Ctx;
  Rng R(77);
  AlphaHashIndex<> Live;
  const Expr *E = parseT(Ctx, "(lam (x y) (x (y x)))");
  Live.insert(Ctx, E);
  std::string Image = saveIndexBytes(Live);

  auto Restored = restoreVerified<Hash128>(Image);
  ASSERT_NE(Restored, nullptr);
  auto Mapped = MappedIndex<Hash128>::openBytes(Image);
  ASSERT_TRUE(Mapped.ok()) << Mapped.Error;
  EXPECT_EQ(Mapped.Reader->numClasses(), 1u);

  std::vector<std::string> Queries;
  Queries.push_back(serializeExpr(Ctx, E));
  Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, E)));
  Queries.push_back(serializeExpr(Ctx, parseT(Ctx, "(lam (z) z)")));
  Queries.push_back("garbage");
  auto FromRestored = Restored->lookupBatch(Queries, 2);
  auto FromMapped = Mapped.Reader->lookupBatch(Queries, 2);
  expectSameLookupAnswers(FromRestored, FromMapped, "restored-vs-mapped");
  ASSERT_TRUE(FromMapped[0].has_value());
  ASSERT_TRUE(FromMapped[1].has_value()); // hit modulo alpha
  EXPECT_FALSE(FromMapped[2].has_value());
  EXPECT_FALSE(FromMapped[3].has_value());
  EXPECT_EQ(FromMapped[0]->Count, 1u);
  expectStatsEq(Restored->stats(), Mapped.Reader->stats());
}

//===----------------------------------------------------------------------===//
// Probe differential battery: the Eytzinger descent vs the live index
//
// Every image carries the probe sidecar, so every mapped lookup runs the
// Eytzinger descent with fences. An image must be a byte-identical
// oracle of the live index it was saved from: same hits, same misses,
// same canonical bytes, same collision fallbacks -- on every table shape
// that stresses a different part of the descent (empty shards,
// single-record shards, duplicate-hash runs, fence-sized shards) and
// under a multi-threaded mixed batch.
//===----------------------------------------------------------------------===//

namespace {

/// Save \p Live into \p Image and open and verify it.
template <typename H>
typename MappedIndex<H>::OpenResult openImage(const AlphaHashIndex<H> &Live,
                                              std::string &Image) {
  Image = saveIndexBytes(Live);
  auto M = MappedIndex<H>::openBytes(Image);
  EXPECT_TRUE(M.ok()) << M.Error;
  EXPECT_TRUE(M.ok() && M.Reader->verify());
  return M;
}

/// Drive \p Queries through \p Live and its image and demand
/// byte-identical answers, single- and 8-threaded. The live copy
/// restored from the image walks each duplicate-hash run in the same
/// (file) order as the mapped reader, so after identical streams their
/// exact-verify counters agree too -- which they only do if every
/// descent lands on the first record of its run.
template <typename H>
void expectProbesAgree(const AlphaHashIndex<H> &Live,
                       const std::vector<std::string> &Queries,
                       const std::string &What) {
  std::string Image;
  auto M = openImage(Live, Image);
  ASSERT_TRUE(M.ok());
  auto Restored = restoreVerified<H>(Image);
  ASSERT_NE(Restored, nullptr);
  for (unsigned Threads : {1u, 8u}) {
    auto FromMapped = M.Reader->lookupBatch(Queries, Threads);
    std::string Tag = What + " (threads=" + std::to_string(Threads) + ")";
    expectSameLookupAnswers(Live.lookupBatch(Queries, Threads), FromMapped,
                            Tag + " live-vs-mapped");
    expectSameLookupAnswers(Restored->lookupBatch(Queries, Threads),
                            FromMapped, Tag + " restored-vs-mapped");
  }
  expectStatsEq(Restored->stats(), M.Reader->stats());
}

} // namespace

TEST(MappedIndexProbe, EmptyAndSingleRecordShardsAnswerLikeTheLiveIndex) {
  // Empty index: every shard's tree is empty, every descent terminates
  // immediately.
  {
    AlphaHashIndex<> Live({/*Shards=*/8, HashSchema::DefaultSeed});
    ExprContext Ctx;
    std::vector<std::string> Queries = {
        serializeExpr(Ctx, parseT(Ctx, "(lam (x) (x x))")), "garbage"};
    expectProbesAgree(Live, Queries, "empty index");
  }

  // 8 classes over 16 shards: shards hold zero or one record, the
  // smallest non-trivial trees (plus empty ones in the same file).
  {
    AlphaHashIndex<> Live({/*Shards=*/16, HashSchema::DefaultSeed});
    ExprContext Gen;
    Rng R(404);
    std::vector<std::string> Queries;
    for (int I = 0; I != 8; ++I) {
      const Expr *E = genBalanced(Gen, R, 16 + I);
      Live.insert(Gen, E);
      Queries.push_back(serializeExpr(Gen, E));
      Queries.push_back(serializeExpr(Gen, alphaRename(Gen, R, E)));
    }
    Queries.push_back(serializeExpr(Gen, genBalanced(Gen, R, 50)));
    Queries.push_back("garbage");
    expectProbesAgree(Live, Queries, "single-record shards");
  }
}

TEST(MappedIndexProbe, FenceSkipEngagesOnLargeShardsAndStaysExact) {
  // One shard with well over FenceMinCount records: the fence array is
  // active, so every descent starts FenceLevels deep. The skip must be a
  // pure re-encoding of the skipped compares -- byte-identical answers
  // on hits, misses, and duplicate queries.
  AlphaHashIndex<> Live({/*Shards=*/1, HashSchema::DefaultSeed});
  std::vector<std::string> Corpus = dupCorpus(150, 606);
  Live.insertBatch(Corpus, 1);
  ASSERT_GE(Live.numClasses(), MappedIndex<Hash128>::FenceMinCount);

  expectProbesAgree(Live, queriesOver(Corpus, 9),
                    "fence-active single shard");
}

TEST(MappedIndexProbe16, DuplicateHashRunsAndCollisionsAnswerLikeTheLiveIndex) {
  // b=16 with a forced collision and hundreds of random classes: the
  // record tables carry duplicate-hash runs, so the lower bound must
  // land on the *first* record of a run for the candidate scan (and the
  // collision fallback) to see candidates in file order.
  ExprContext Ctx;
  Rng R(4242);
  AlphaHashIndex<Hash16> Live({/*Shards=*/4, HashSchema::DefaultSeed});
  AlphaHasher<Hash16> H(Ctx, Live.schema());
  auto [A, B] = findColliding16(Ctx, R, H);
  ASSERT_NE(A, nullptr) << "no 16-bit collision found -- width suspect";
  Live.insert(Ctx, A);
  Live.insert(Ctx, B);
  Live.insert(Ctx, alphaRename(Ctx, R, A));
  std::vector<std::string> Queries;
  Queries.push_back(serializeExpr(Ctx, A));
  Queries.push_back(serializeExpr(Ctx, B));
  Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, B)));
  for (int I = 0; I != 400; ++I) {
    const Expr *E = genBalanced(Ctx, R, 20 + I % 30);
    Live.insert(Ctx, E);
    if (I % 5 == 0)
      Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, E)));
    if (I % 7 == 0)
      Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 40)));
  }
  Queries.push_back("garbage");

  // The mapped and restored readers see identical candidate lists, so
  // even the *stats* agree after identical streams (checked by
  // expectProbesAgree): same fallback checks, same refutations -- and
  // some of each.
  expectProbesAgree(Live, Queries, "b=16 dup runs");
  std::string Image;
  auto M = openImage(Live, Image);
  ASSERT_TRUE(M.ok());
  const IndexStats Before = M.Reader->stats();
  M.Reader->lookupBatch(Queries, 2);
  EXPECT_GT(M.Reader->stats().FallbackChecks, Before.FallbackChecks);
  EXPECT_GT(M.Reader->stats().VerifiedCollisions, Before.VerifiedCollisions);
}

TEST(MappedIndexProbe16, ProbeHashCountsMatchTheSortedSnapshot) {
  // b=16 over few shards: many hashes carry duplicate-hash runs, so each
  // count is the length of a run, not just 0 or 1.
  ExprContext Ctx;
  Rng R(21);
  AlphaHashIndex<Hash16> Live({/*Shards=*/4, HashSchema::DefaultSeed});
  AlphaHasher<Hash16> H(Ctx, Live.schema());
  for (int I = 0; I != 3000; ++I)
    Live.insert(Ctx, genBalanced(Ctx, R, 12 + I % 20));

  // Reference: std::equal_range over the snapshot's sorted hashes.
  std::vector<Hash16> Sorted;
  for (const auto &C : Live.snapshot())
    Sorted.push_back(C.Hash);
  ASSERT_TRUE(std::is_sorted(Sorted.begin(), Sorted.end()));
  // Every stored hash (so every run), plus fresh hashes that mostly miss.
  std::vector<Hash16> Hashes = Sorted;
  for (int I = 0; I != 200; ++I)
    Hashes.push_back(H.hashRoot(genBalanced(Ctx, R, 33)));

  std::string Image;
  auto M = openImage(Live, Image);
  ASSERT_TRUE(M.ok());
  std::vector<uint32_t> Counts;
  M.Reader->probeHashCounts(Hashes, Counts);
  ASSERT_EQ(Counts.size(), Hashes.size());
  size_t Runs = 0, Misses = 0;
  uint64_t StoredRecords = 0; // each run counted once, at its first hash
  for (size_t I = 0; I != Hashes.size(); ++I) {
    auto [Lo, Hi] = std::equal_range(Sorted.begin(), Sorted.end(), Hashes[I]);
    EXPECT_EQ(Counts[I], static_cast<uint32_t>(Hi - Lo)) << "hash " << I;
    Runs += Counts[I] > 1;
    Misses += Counts[I] == 0;
    if (I < Sorted.size() && (I == 0 || Sorted[I - 1] != Sorted[I]))
      StoredRecords += Counts[I];
  }
  EXPECT_EQ(StoredRecords, Live.numClasses());
  EXPECT_GT(Runs, 0u);   // some duplicate-hash runs...
  EXPECT_GT(Misses, 0u); // ...and some definite misses
}

//===----------------------------------------------------------------------===//
// Incompatible files
//===----------------------------------------------------------------------===//

TEST(MappedIndex, WidthMismatchIsRejectedAtOpen) {
  AlphaHashIndex<> Live;
  ExprContext Ctx;
  Live.insert(Ctx, parseT(Ctx, "(lam (x) x)"));
  std::string Image = saveIndexBytes(Live);

  auto Wrong = MappedIndex<Hash64>::openBytes(Image);
  ASSERT_FALSE(Wrong.ok());
  EXPECT_NE(Wrong.Error.find("b=128"), std::string::npos) << Wrong.Error;
  EXPECT_NE(Wrong.Error.find("b=64"), std::string::npos) << Wrong.Error;
  EXPECT_EQ(Wrong.ErrorPos, 16u);

  auto NotAnIndex = MappedIndex<Hash128>::openBytes("HMACnope");
  ASSERT_FALSE(NotAnIndex.ok());
  EXPECT_NE(NotAnIndex.Error.find("magic"), std::string::npos)
      << NotAnIndex.Error;
}
