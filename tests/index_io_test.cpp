//===- tests/index_io_test.cpp - HMAI on-disk format ------------------------===//
///
/// \file
/// The persistence contract: an index saved to `HMAI` bytes and reopened
/// is indistinguishable from the index that was saved -- same classes,
/// same counts, same stats, same query answers -- without re-ingesting
/// or re-hashing anything. Exercised at b=128 (production) and at b=16
/// with a forced collision, where correctness depends on the reopened
/// index running the exact-verify fallback against *file-restored*
/// canonical bytes. Also pins the memory-diet claims of the byte-backed
/// \ref ShardStore: no retained arenas beyond the canonical blobs, and
/// one byte-walk verify per duplicate in the exact-verify fallback.
///
//===----------------------------------------------------------------------===//

#include "index/IndexIO.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Serialize.h"
#include "gen/RandomExpr.h"
#include "index/Fsck.h"
#include "index/MappedIndex.h"
#include "index/ShardStore.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <map>

using namespace hma;

namespace {

template <typename H>
void expectSnapshotEq(const AlphaHashIndex<H> &A, const AlphaHashIndex<H> &B) {
  expectClassSummariesEq<H>(A.snapshot(), B.snapshot());
}

/// A corpus with duplicates (alpha-renamed) and one undecodable blob, so
/// every stats counter is nonzero and must survive the round-trip.
std::vector<std::string> dupHeavyCorpus(uint64_t Seed) {
  ExprContext Gen;
  Rng R(Seed);
  std::vector<std::string> Blobs;
  for (int I = 0; I != 40; ++I) {
    const Expr *E = genBalanced(Gen, R, 30);
    Blobs.push_back(serializeExpr(Gen, E));
    if (I % 2 == 0)
      Blobs.push_back(serializeExpr(Gen, alphaRename(Gen, R, E)));
  }
  Blobs.push_back("not a valid HMA1 blob");
  return Blobs;
}

} // namespace

//===----------------------------------------------------------------------===//
// Snapshot/stats round-trip, b=128
//===----------------------------------------------------------------------===//

TEST(IndexIO, SaveReopenRoundTripsSnapshotAndStatsAtB128) {
  AlphaHashIndex<> Live({/*Shards=*/16, HashSchema::DefaultSeed});
  Live.insertBatch(dupHeavyCorpus(31337), /*Threads=*/1);
  ASSERT_EQ(Live.numClasses(), 40u);
  ASSERT_GT(Live.stats().Duplicates, 0u);
  ASSERT_EQ(Live.stats().DecodeErrors, 1u);

  std::string Bytes = saveIndexBytes(Live);
  ASSERT_TRUE(isIndexFile(Bytes));

  auto Re = restoreVerified<Hash128>(Bytes);
  ASSERT_NE(Re, nullptr);
  EXPECT_EQ(Re->numShards(), Live.numShards());
  EXPECT_EQ(Re->schema().seed(), Live.schema().seed());
  EXPECT_EQ(Re->numClasses(), Live.numClasses());
  expectSnapshotEq(Live, *Re);
  expectStatsEq(Live.stats(), Re->stats());

  // Saving the reopened index reproduces the file bit-for-bit: the
  // format is a deterministic function of the class table.
  EXPECT_EQ(saveIndexBytes(*Re), Bytes);
}

TEST(IndexIO, ReopenedIndexKeepsIngestingAndMergesDuplicates) {
  ExprContext Ctx;
  AlphaHashIndex<> Live;
  const Expr *E = parseT(Ctx, "(lam (x y) (x (y x)))");
  Live.insert(Ctx, E);

  auto Re = restoreVerified<Hash128>(saveIndexBytes(Live));
  ASSERT_NE(Re, nullptr);

  // A renamed copy must merge into the restored class, verified against
  // the file-restored canonical bytes.
  const Expr *Renamed = parseT(Ctx, "(lam (p q) (p (q p)))");
  Re->insert(Ctx, Renamed);
  EXPECT_EQ(Re->numClasses(), 1u);
  auto Hit = Re->lookup(Ctx, E);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, 2u);
  IndexStats S = Re->stats();
  EXPECT_EQ(S.Inserted, 2u);
  EXPECT_EQ(S.Duplicates, 1u);
  EXPECT_EQ(S.VerifiedCollisions, 0u);
}

TEST(IndexIO, RestoreCanReShardBecausePlacementIsAFunctionOfTheHash) {
  AlphaHashIndex<> Live({/*Shards=*/64, HashSchema::DefaultSeed});
  Live.insertBatch(dupHeavyCorpus(99), 1);
  std::string Bytes = saveIndexBytes(Live);

  auto Re = restoreVerified<Hash128>(Bytes, /*Shards=*/4);
  ASSERT_NE(Re, nullptr);
  EXPECT_EQ(Re->numShards(), 4u);
  expectSnapshotEq(Live, *Re);

  ExprContext Ctx;
  for (const auto &C : Live.snapshot()) {
    DeserializeResult D = deserializeExpr(Ctx, C.CanonicalBytes);
    ASSERT_TRUE(D.ok());
    auto Hit = Re->lookup(Ctx, D.E);
    ASSERT_TRUE(Hit.has_value());
    EXPECT_EQ(Hit->Count, C.Count);
  }
}

//===----------------------------------------------------------------------===//
// Round-trip at b=16: restored bytes keep colliding classes apart
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

TEST(IndexIO16, RoundTripPreservesCollidingClassesAndStats) {
  ExprContext Ctx;
  Rng R(4242);
  AlphaHashIndex<Hash16> Live({/*Shards=*/4, HashSchema::DefaultSeed});
  AlphaHasher<Hash16> H(Ctx, Live.schema());

  auto [A, B] = findColliding16(Ctx, R, H);
  ASSERT_NE(A, nullptr) << "no 16-bit collision found -- width suspect";
  Live.insert(Ctx, A);
  Live.insert(Ctx, B);
  Live.insert(Ctx, alphaRename(Ctx, R, A));
  // Some non-colliding ballast too.
  for (int I = 0; I != 50; ++I)
    Live.insert(Ctx, genBalanced(Ctx, R, 24));

  IndexStats LiveStats = Live.stats();
  ASSERT_GE(LiveStats.VerifiedCollisions, 1u);

  auto Re = restoreVerified<Hash16>(saveIndexBytes(Live));
  ASSERT_NE(Re, nullptr);
  expectSnapshotEq(Live, *Re);
  expectStatsEq(LiveStats, Re->stats());

  // The two colliding classes resolve separately on the reopened index:
  // the fallback decodes the *restored* bytes and refuses the merge.
  auto HitA = Re->lookup(Ctx, A);
  auto HitB = Re->lookup(Ctx, B);
  ASSERT_TRUE(HitA.has_value());
  ASSERT_TRUE(HitB.has_value());
  EXPECT_EQ(HitA->Hash, HitB->Hash);
  EXPECT_EQ(HitA->Count, 2u);
  EXPECT_EQ(HitB->Count, 1u);
  EXPECT_NE(HitA->CanonicalBytes, HitB->CanonicalBytes);

  // And re-inserting either member merges into the right class.
  Re->insert(Ctx, alphaRename(Ctx, R, B));
  EXPECT_EQ(Re->lookup(Ctx, B)->Count, 2u);
  EXPECT_EQ(Re->lookup(Ctx, A)->Count, 2u);
  EXPECT_EQ(Re->numClasses(), Live.numClasses());
}

//===----------------------------------------------------------------------===//
// Reopened query answers are identical to the live index's
//===----------------------------------------------------------------------===//

TEST(IndexIO, OpenQueryBatchMatchesLiveIndexExactly) {
  ExprContext Gen;
  Rng R(777);
  std::vector<std::string> Corpus;
  for (int I = 0; I != 50; ++I) {
    const Expr *E = genBalanced(Gen, R, 28);
    Corpus.push_back(serializeExpr(Gen, E));
    if (I % 3 == 0)
      Corpus.push_back(serializeExpr(Gen, alphaRename(Gen, R, E)));
  }

  AlphaHashIndex<> Live;
  Live.insertBatch(Corpus, 1);
  auto Re = restoreVerified<Hash128>(saveIndexBytes(Live));
  ASSERT_NE(Re, nullptr);

  // Queries: renamed members (hits modulo alpha), fresh expressions
  // (misses), and an undecodable blob.
  std::vector<std::string> Queries;
  for (int I = 0; I != 30; ++I) {
    ExprContext Ctx;
    DeserializeResult D = deserializeExpr(Ctx, Corpus[I]);
    ASSERT_TRUE(D.ok());
    Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, D.E)));
  }
  for (int I = 0; I != 10; ++I) {
    ExprContext Ctx;
    Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 70)));
  }
  Queries.push_back("garbage query");

  for (unsigned Threads : {1u, 4u}) {
    auto FromLive = Live.lookupBatch(Queries, Threads);
    auto FromFile = Re->lookupBatch(Queries, Threads);
    ASSERT_EQ(FromLive.size(), FromFile.size());
    for (size_t I = 0; I != FromLive.size(); ++I) {
      ASSERT_EQ(FromLive[I].has_value(), FromFile[I].has_value())
          << "query " << I;
      if (!FromLive[I])
        continue;
      EXPECT_EQ(FromLive[I]->Hash, FromFile[I]->Hash);
      EXPECT_EQ(FromLive[I]->Count, FromFile[I]->Count);
      EXPECT_EQ(FromLive[I]->CanonicalBytes, FromFile[I]->CanonicalBytes);
    }
  }
}

//===----------------------------------------------------------------------===//
// Malformed files
//===----------------------------------------------------------------------===//

namespace {

std::string validIndexBytes() {
  AlphaHashIndex<> Live({/*Shards=*/8, HashSchema::DefaultSeed});
  Live.insertBatch(dupHeavyCorpus(5), 1);
  return saveIndexBytes(Live);
}

/// The validator's verdict on \p Bytes read at width H: `open`, then
/// `verify`. Empty when both pass, else the diagnostic (and, if
/// non-null, its byte offset in \p Pos).
template <typename H>
std::string validatorError(std::string_view Bytes, size_t *Pos = nullptr) {
  typename MappedIndex<H>::OpenResult M = MappedIndex<H>::openBytes(Bytes);
  std::string Error = M.Error;
  size_t ErrorPos = M.ErrorPos;
  if (M.ok() && M.Reader->verify(&Error, &ErrorPos))
    return std::string();
  if (Pos)
    *Pos = ErrorPos;
  return Error;
}

} // namespace

TEST(IndexIO, MalformedFilesAreRejectedWithDiagnostics) {
  std::string Good = validIndexBytes();
  ASSERT_EQ(validatorError<Hash128>(Good), "");

  EXPECT_NE(validatorError<Hash128>("").find("magic"), std::string::npos);
  EXPECT_NE(validatorError<Hash128>("HMACnope").find("magic"),
            std::string::npos);
  EXPECT_NE(validatorError<Hash128>(std::string_view(Good).substr(0, 40))
                .find("truncated header"),
            std::string::npos);
  {
    std::string Bad = Good;
    Bad[4] = 99; // version
    size_t Pos = 0;
    std::string Error = validatorError<Hash128>(Bad, &Pos);
    EXPECT_NE(Error.find("unsupported index version"), std::string::npos)
        << Error;
    EXPECT_EQ(Pos, 4u);
  }
  {
    std::string Bad = Good;
    Bad[20] = 3; // shard count: not a power of two
    std::string Error = validatorError<Hash128>(Bad);
    EXPECT_NE(Error.find("power of two"), std::string::npos) << Error;
  }
  {
    std::string Bad = Good;
    ++Bad[24]; // total class count no longer matches the directory
    std::string Error = validatorError<Hash128>(Bad);
    EXPECT_NE(Error.find("directory sums"), std::string::npos) << Error;
  }
  // Chop the file inside the tables: some shard's table overruns.
  EXPECT_FALSE(
      validatorError<Hash128>(std::string_view(Good).substr(0, Good.size() / 2))
          .empty());
  {
    // Width mismatch: a b=128 file read by a b=64 instantiation.
    std::string Error = validatorError<Hash64>(Good);
    EXPECT_NE(Error.find("b=128"), std::string::npos) << Error;
    EXPECT_NE(Error.find("b=64"), std::string::npos) << Error;
  }
}

TEST(IndexIO, ProbeReportsCompatibilitySurfaceWithoutLoading) {
  std::string Good = validIndexBytes();
  IndexFileInfo Info;
  std::string Error;
  ASSERT_TRUE(probeIndexBytes(Good, Info, &Error)) << Error;
  EXPECT_EQ(Info.Version, iio::Version);
  EXPECT_EQ(Info.Seed, HashSchema::DefaultSeed);
  EXPECT_EQ(Info.HashBits, 128u);
  EXPECT_EQ(Info.Shards, 8u);
  EXPECT_EQ(Info.NumClasses, 40u);
  EXPECT_GT(Info.Stats.Inserted, 0u);
  // The default save carries the probe sidecar as the file's tail
  // region: one (BFS hash, rank) pair per class.
  ASSERT_TRUE(Info.hasSidecar());
  EXPECT_EQ(Info.SidecarLength, Info.NumClasses * iio::sidecarEntrySize(128));
  EXPECT_EQ(Info.SidecarOffset + Info.SidecarLength, Good.size());
}

//===----------------------------------------------------------------------===//
// v1 <-> v2: sidecar-free files serve via scalar fallback; both
// versions re-save bit-identically
//===----------------------------------------------------------------------===//

TEST(IndexIOVersions, V1FilesOpenServeAndResaveBitIdentically) {
  AlphaHashIndex<> Live({/*Shards=*/8, HashSchema::DefaultSeed});
  Live.insertBatch(dupHeavyCorpus(612), 1);
  std::string V1 = saveIndexBytes(Live, /*FormatVersion=*/1);
  std::string V2 = saveIndexBytes(Live);
  ASSERT_LT(V1.size(), V2.size()); // v2 = v1 + 16 header bytes + sidecar

  IndexFileInfo Info;
  std::string Error;
  ASSERT_TRUE(probeIndexBytes(V1, Info, &Error)) << Error;
  EXPECT_EQ(Info.Version, 1u);
  EXPECT_FALSE(Info.hasSidecar());

  // The mapped reader opens v1 and verifies it; with no sidecar it
  // probes by scalar search, while the v2 image carries the sidecar.
  auto M = MappedIndex<Hash128>::openBytes(V1);
  ASSERT_TRUE(M.ok()) << M.Error;
  EXPECT_TRUE(M.Reader->verify());
  EXPECT_FALSE(M.Reader->hasProbeSidecar());
  auto M2 = MappedIndex<Hash128>::openBytes(V2);
  ASSERT_TRUE(M2.ok()) << M2.Error;
  EXPECT_TRUE(M2.Reader->hasProbeSidecar());

  // v1 answers == v2 answers, query for query.
  std::vector<std::string> Queries = dupHeavyCorpus(612);
  expectSameLookupAnswers(M.Reader->lookupBatch(Queries, 2),
                          M2.Reader->lookupBatch(Queries, 2),
                          "v1 scalar vs v2 sidecar");

  // The index restored from the verified v1 reader is the saved one.
  auto L = restoreVerified<Hash128>(V1);
  ASSERT_NE(L, nullptr);
  expectSnapshotEq(Live, *L);
  expectStatsEq(Live.stats(), L->stats());

  // Round-trips are bit-identical within each version, and upgrading a
  // v1 file (restore, save at the default version) reproduces the direct
  // v2 image -- the sidecar is a pure function of the class table.
  EXPECT_EQ(saveIndexBytes(*L, /*FormatVersion=*/1), V1);
  EXPECT_EQ(saveIndexBytes(*L), V2);
}

//===----------------------------------------------------------------------===//
// The memory diet: bytes are the only per-class retention; the fallback
// verifies stored bytes without decoding them
//===----------------------------------------------------------------------===//

TEST(IndexMemory, RetainedBytesAreExactlyTheCanonicalBlobs) {
  AlphaHashIndex<> Index;
  Index.insertBatch(dupHeavyCorpus(123), 1);

  size_t SumBlobBytes = 0;
  for (const auto &C : Index.snapshot())
    SumBlobBytes += C.CanonicalBytes.size();
  // No per-representative arenas: class storage retains the canonical
  // bytes and nothing else.
  EXPECT_EQ(Index.retainedBytes(), SumBlobBytes);
}

TEST(IndexMemory, IngestVerifiesEachDuplicateOnce) {
  // Hammer ONE class with renamed duplicates on a single-shard index:
  // every insert after the first runs exactly one fallback check -- one
  // byte walk over the stored representative -- and every check
  // confirms the duplicate.
  AlphaHashIndex<> Index({/*Shards=*/1, HashSchema::DefaultSeed});
  ExprContext Ctx;
  Rng R(9);
  const Expr *E = parseT(Ctx, "(lam (x) (lam (y) (x (y x))))");
  const unsigned N = 200;
  for (unsigned I = 0; I != N; ++I)
    Index.insert(Ctx, alphaRename(Ctx, R, E));

  EXPECT_EQ(Index.numClasses(), 1u);
  IndexStats S = Index.stats();
  EXPECT_EQ(S.FallbackChecks, uint64_t(N - 1));
  EXPECT_EQ(S.Duplicates, uint64_t(N - 1));
  EXPECT_EQ(S.VerifiedCollisions, 0u);
}

TEST(IndexMemory, DecodeScratchRecyclesOnceOverThreshold) {
  ExprContext Ctx;
  Rng R(1);
  std::string Big = serializeExpr(Ctx, genBalanced(Ctx, R, 400));
  std::string Small = serializeExpr(Ctx, parseT(Ctx, "(lam (x) x)"));

  // A tiny threshold forces a recycle before every decode once the first
  // big expression lands in the arena: the context never holds more
  // than the latest expression.
  DecodeScratch Tight(/*RecycleBytes=*/64);
  ASSERT_NE(Tight.decode(Big), nullptr);
  const size_t OneBig = Tight.arenaBytes();
  for (int I = 0; I != 5; ++I)
    ASSERT_NE(Tight.decode(Big), nullptr);
  EXPECT_EQ(Tight.arenaBytes(), OneBig);

  // The default threshold sustains many small decodes on one context,
  // whose retained arena stays under the threshold.
  DecodeScratch Roomy;
  ASSERT_NE(Roomy.decode(Small), nullptr);
  const uint64_t First = Roomy.context().epoch();
  for (int I = 0; I != 100; ++I)
    ASSERT_NE(Roomy.decode(Small), nullptr);
  EXPECT_EQ(Roomy.context().epoch(), First);
  EXPECT_LE(Roomy.arenaBytes(), DecodeScratch::DefaultRecycleBytes);

  // Malformed bytes are a nullptr, never UB.
  EXPECT_EQ(Roomy.decode("garbage"), nullptr);
}

//===----------------------------------------------------------------------===//
// Adversarial battery: deterministic corruption sweep over the validator
//
// Every file open runs one validator: `MappedIndex::open` (O(shards)
// envelope probe) then `verify()` (O(classes) record and sidecar check).
// A structurally corrupt image must fail one of the two with a non-empty
// diagnostic. Every image that opens -- including a deep corruption the
// O(shards) probe cannot see -- must serve lookups, stats and snapshots
// without reading out of bounds (the HMA_SANITIZE CI job enforces this
// with ASan). An image that passes `verify` -- semantically corrupt but
// structurally valid ones included (stats/seed flips, overlapping blob
// ranges) -- must answer exactly like the live copy restored from it.
//===----------------------------------------------------------------------===//

namespace {

/// What the validator must make of a corrupted image.
enum class Expect {
  Reject, ///< `open` or `verify` refuses it.
  Accept, ///< Structurally valid: `open` and `verify` pass.
  Either, ///< Depends on the bytes; only the read-path contract holds.
};

/// Drive one (possibly corrupted) image through the validator and the
/// read path and enforce the contract above.
void expectValidatorVerdict(const std::string &Image,
                            const std::vector<std::string> &Queries,
                            Expect Want, const std::string &What) {
  MappedIndex<Hash128>::OpenResult M = MappedIndex<Hash128>::openBytes(Image);
  std::string Error = M.Error;
  const bool Accepted = M.ok() && M.Reader->verify(&Error);
  if (Want == Expect::Reject) {
    EXPECT_FALSE(Accepted) << What;
  }
  if (Want == Expect::Accept) {
    EXPECT_TRUE(Accepted) << What << ": " << Error;
  }
  if (!Accepted) {
    EXPECT_FALSE(Error.empty()) << What;
  }
  if (!M.ok())
    return;

  // Opened, verified or not: the bounds-checked read path must stay in
  // bounds.
  auto FromMapped = M.Reader->lookupBatch(Queries, 2);
  M.Reader->snapshot();
  M.Reader->stats();
  M.Reader->shardLoads();
  if (!Accepted)
    return;
  auto Restored = AlphaHashIndex<Hash128>::restore(
      {M.Reader->numShards(), M.Reader->schema().seed()},
      M.Reader->snapshot(), M.Reader->stats());
  expectSameLookupAnswers(Restored->lookupBatch(Queries, 2), FromMapped,
                          What + " (restored vs mapped)");
}

/// A small single-shard index image with known record layout, plus a
/// query battery (members, a fresh miss, garbage) against it.
struct AdversarialFixture {
  std::string Image;
  std::vector<std::string> Queries;
  size_t NumRecords = 0;
  size_t TablesStart = 0;
  size_t RecSize = 0;
  size_t BytesStart = 0;
  size_t SidecarStart = 0;
};

AdversarialFixture singleShardFixture() {
  AdversarialFixture F;
  AlphaHashIndex<> Live({/*Shards=*/1, HashSchema::DefaultSeed});
  ExprContext Gen;
  Rng R(31);
  for (int I = 0; I != 8; ++I) {
    const Expr *E = genBalanced(Gen, R, 20 + 4 * I);
    Live.insert(Gen, E);
    F.Queries.push_back(serializeExpr(Gen, E));
  }
  F.Queries.push_back(serializeExpr(Gen, genBalanced(Gen, R, 64)));
  F.Queries.push_back("garbage");
  F.Image = saveIndexBytes(Live);
  F.NumRecords = Live.numClasses();
  F.TablesStart = iio::headerSize(iio::Version) + iio::DirEntrySize; // 1 shard
  F.RecSize = iio::recordSize<Hash128>();
  F.BytesStart = F.TablesStart + F.NumRecords * F.RecSize;
  F.SidecarStart =
      F.Image.size() - F.NumRecords * iio::sidecarEntrySize(128);
  return F;
}

/// Overwrite the 8-byte little-endian word at \p Pos.
std::string patchWord64(std::string Image, size_t Pos, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Image[Pos + I] = static_cast<char>((V >> (8 * I)) & 0xFF);
  return Image;
}

/// \p F's image with the low bit of sidecar slot \p Slot's rank word
/// flipped: the rank now names a different, in-range record.
std::string flipSidecarRank(const AdversarialFixture &F, size_t Slot) {
  std::string Bad = F.Image;
  const size_t RankPos = F.SidecarStart +
                         F.NumRecords * (HashWidth<Hash128>::Bits / 8) +
                         Slot * iio::RankEntrySize;
  Bad[RankPos] =
      static_cast<char>(static_cast<unsigned char>(Bad[RankPos]) ^ 0x01);
  return Bad;
}

} // namespace

TEST(IndexIOAdversarial, TruncationAtEveryRegionBoundaryRejects) {
  AdversarialFixture F = singleShardFixture();
  const size_t Size = F.Image.size();
  ASSERT_GT(F.BytesStart, 0u);
  ASSERT_GT(Size, F.BytesStart);

  // Every strict prefix of a valid image is invalid: the cut lands in
  // the header, the directory, some table record, or some blob. Sweep
  // the region boundaries (and their neighbours) plus mid-region cuts.
  std::vector<size_t> Cuts = {0,
                              1,
                              sizeof(iio::Magic),
                              iio::HeaderSize - 1,
                              iio::HeaderSize,
                              iio::HeaderSizeV2 - 1,
                              iio::HeaderSizeV2,
                              F.TablesStart - 1,
                              F.TablesStart,
                              F.TablesStart + F.RecSize - 1,
                              F.TablesStart + F.RecSize,
                              F.TablesStart + (F.NumRecords / 2) * F.RecSize,
                              F.BytesStart - 1,
                              F.BytesStart,
                              F.BytesStart + (F.SidecarStart - F.BytesStart) / 2,
                              F.SidecarStart - 1,
                              F.SidecarStart,
                              F.SidecarStart + iio::sidecarEntrySize(128),
                              Size - 1};
  for (size_t Cut : Cuts) {
    ASSERT_LT(Cut, Size);
    expectValidatorVerdict(F.Image.substr(0, Cut), F.Queries, Expect::Reject,
                           "truncated at byte " + std::to_string(Cut));
  }
}

TEST(IndexIOAdversarial, HeaderBitFlipSweepRejectsExactlyTheStructuralFields) {
  AdversarialFixture F = singleShardFixture();
  for (size_t Pos = 0; Pos != iio::headerSize(iio::Version); ++Pos) {
    for (unsigned char Bit : {0x01, 0x80}) {
      std::string Bad = F.Image;
      Bad[Pos] = static_cast<char>(static_cast<unsigned char>(Bad[Pos]) ^ Bit);
      // Structural fields must reject; the seed ([8,16): a different --
      // valid -- hash family) and the stats ([32,80): counters) yield
      // well-formed images that must be accepted and serve. The sidecar
      // offset/length ([80,96)) are structural again: the sidecar must
      // be the exact tail of the file.
      bool Structural = Pos < 8 || (Pos >= 16 && Pos < 32) || Pos >= 80;
      expectValidatorVerdict(Bad, F.Queries,
                             Structural ? Expect::Reject : Expect::Accept,
                             "header byte " + std::to_string(Pos) + " ^ " +
                                 std::to_string(Bit));
    }
  }
}

TEST(IndexIOAdversarial, TableFieldCorruptionsRejectOrStaySafe) {
  AdversarialFixture F = singleShardFixture();
  ASSERT_GE(F.NumRecords, 3u);
  const size_t Size = F.Image.size();
  const unsigned HashBytes = HashWidth<Hash128>::Bits / 8;
  auto RecPos = [&](size_t I) { return F.TablesStart + I * F.RecSize; };
  auto OffsetPos = [&](size_t I) { return RecPos(I) + HashBytes; };
  auto LengthPos = [&](size_t I) { return RecPos(I) + HashBytes + 8; };
  auto CountPos = [&](size_t I) { return RecPos(I) + HashBytes + 16; };
  auto Reject = [&](const std::string &Bad, const std::string &What) {
    expectValidatorVerdict(Bad, F.Queries, Expect::Reject, What);
  };

  // Out-of-bounds blob ranges: every variant must reject.
  Reject(patchWord64(F.Image, OffsetPos(1), 0), "blob offset -> header");
  Reject(patchWord64(F.Image, OffsetPos(1), F.TablesStart),
         "blob offset -> tables region");
  Reject(patchWord64(F.Image, OffsetPos(1), Size), "blob offset -> EOF");
  Reject(patchWord64(F.Image, OffsetPos(1), ~uint64_t(0)),
         "blob offset -> u64 max");
  Reject(patchWord64(F.Image, LengthPos(1), Size), "blob length -> file size");
  Reject(patchWord64(F.Image, LengthPos(1), ~uint64_t(0)),
         "blob length -> u64 max (overflow)");
  // Offset+length arithmetic must not wrap around.
  {
    std::string Bad = patchWord64(F.Image, OffsetPos(1), Size - 1);
    Bad = patchWord64(std::move(Bad), LengthPos(1), ~uint64_t(0) - 2);
    Reject(Bad, "offset+length wraps");
  }

  // An unsorted table: swap two adjacent records. (b=128 hashes are
  // distinct, so one of the two orders must violate sortedness.)
  {
    std::string Bad = F.Image;
    for (size_t B = 0; B != F.RecSize; ++B)
      std::swap(Bad[RecPos(0) + B], Bad[RecPos(1) + B]);
    Reject(Bad, "swapped records 0 and 1");
  }

  // Overlapping blob ranges -- record 1 re-pointed at record 0's blob --
  // are structurally valid: accepted, answering like the restored copy
  // (the aliased class simply fails exact verification for its old
  // members), and never reading out of bounds.
  {
    uint64_t Off0 = iio::getWordLE(F.Image.data() + OffsetPos(0), 8);
    uint64_t Len0 = iio::getWordLE(F.Image.data() + LengthPos(0), 8);
    std::string Bad = patchWord64(F.Image, OffsetPos(1), Off0);
    Bad = patchWord64(std::move(Bad), LengthPos(1), Len0);
    expectValidatorVerdict(Bad, F.Queries, Expect::Accept,
                           "record 1 aliases record 0's blob");
  }

  // A flipped member count is semantically wrong but structurally fine.
  expectValidatorVerdict(patchWord64(F.Image, CountPos(2), 41), F.Queries,
                         Expect::Accept, "count patched");

  // A flipped low hash byte either breaks sortedness (reject) or yields
  // a sorted-but-wrong table (accept; queries for the original class
  // miss on the mapped reader and the restored copy alike).
  for (size_t I = 0; I != F.NumRecords; ++I) {
    std::string Bad = F.Image;
    Bad[RecPos(I)] =
        static_cast<char>(static_cast<unsigned char>(Bad[RecPos(I)]) ^ 0x01);
    expectValidatorVerdict(Bad, F.Queries, Expect::Either,
                           "hash bit flip in record " + std::to_string(I));
  }
}

TEST(IndexIOAdversarial, DirectoryCorruptionsReject) {
  AdversarialFixture F = singleShardFixture();
  const size_t DirPos = iio::headerSize(iio::Version);
  const size_t Size = F.Image.size();
  // Table offset past EOF / count too large for the remaining bytes.
  expectValidatorVerdict(patchWord64(F.Image, DirPos, Size + 1), F.Queries,
                         Expect::Reject, "table offset past EOF");
  expectValidatorVerdict(patchWord64(F.Image, DirPos + 8, F.NumRecords + 1000),
                         F.Queries, Expect::Reject, "table count overruns");
  // Count lowered: directory no longer sums to the header's class count.
  expectValidatorVerdict(patchWord64(F.Image, DirPos + 8, F.NumRecords - 1),
                         F.Queries, Expect::Reject, "table count undercounts");
  // Table re-pointed at the blob region: record fields decode as noise;
  // whatever the verdict, the read path stays in bounds.
  expectValidatorVerdict(patchWord64(F.Image, DirPos, F.BytesStart), F.Queries,
                         Expect::Either, "table aliases bytes region");
}

TEST(IndexIOAdversarial, SidecarContentCorruptionsReject) {
  // The sidecar is derived data -- any slot whose BFS hash or rank word
  // disagrees with the shard's record table must be rejected by
  // verify(), or the Eytzinger probe would answer differently from the
  // scalar one.
  AdversarialFixture F = singleShardFixture();
  const unsigned HashBytes = HashWidth<Hash128>::Bits / 8;
  const size_t RanksStart = F.SidecarStart + F.NumRecords * HashBytes;

  for (size_t Slot : {size_t(0), F.NumRecords / 2, F.NumRecords - 1}) {
    // Flip one byte of the slot's BFS-ordered hash copy.
    std::string BadHash = F.Image;
    size_t HashPos = F.SidecarStart + Slot * HashBytes;
    BadHash[HashPos] = static_cast<char>(
        static_cast<unsigned char>(BadHash[HashPos]) ^ 0x01);
    expectValidatorVerdict(BadHash, F.Queries, Expect::Reject,
                           "sidecar hash flip in slot " + std::to_string(Slot));

    // Point the slot's rank word at a different (in-range) record.
    expectValidatorVerdict(flipSidecarRank(F, Slot), F.Queries, Expect::Reject,
                           "sidecar rank flip in slot " + std::to_string(Slot));
  }

  // A rank word far out of range must also reject cleanly (and must
  // never index out of bounds even through the unverified open path).
  expectValidatorVerdict(patchWord64(F.Image, RanksStart, ~uint64_t(0)),
                         F.Queries, Expect::Reject,
                         "sidecar ranks 0 and 1 -> u32 max");
}

TEST(IndexIOAdversarial, FsckDeepCheckAndVerifyRejectTheSameSidecarRank) {
  // fsck's deep check is open + verify over the file's bytes: a v2 file
  // with one corrupted sidecar rank is damage to both.
  AdversarialFixture F = singleShardFixture();
  const std::string Bad = flipSidecarRank(F, F.NumRecords / 2);
  size_t Pos = 0;
  const std::string VerifyError = validatorError<Hash128>(Bad, &Pos);
  EXPECT_NE(VerifyError.find("is not the Eytzinger in-order position"),
            std::string::npos)
      << VerifyError;
  EXPECT_GE(Pos, F.SidecarStart);

  const std::string Path = "index_io_test_fsck_rank.hmai";
  std::string Error;
  ASSERT_TRUE(writeFileReplacing(Path, Bad, &Error)) << Error;
  FsckReport R = fsckIndex(Path);
  std::remove(Path.c_str());
  EXPECT_FALSE(R.Serviceable);
  EXPECT_FALSE(R.Healthy);
  ASSERT_EQ(R.Issues.size(), 1u) << R.render(Path);
  EXPECT_EQ(R.Issues[0].Kind, FsckIssueKind::CorruptSegment);
  EXPECT_STREQ(fsckIssueKindName(R.Issues[0].Kind), "corrupt-segment");
  EXPECT_EQ(R.Issues[0].Detail, VerifyError);
  EXPECT_NE(R.render(Path).find("damaged"), std::string::npos)
      << R.render(Path);
}

//===----------------------------------------------------------------------===//
// Durability: atomic replace under crash debris
//===----------------------------------------------------------------------===//

namespace {

/// Plant arbitrary bytes at \p Path directly (no temp-file protocol) --
/// the debris a crashed writer leaves behind.
void plantFile(const std::string &Path, std::string_view Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  if (!Bytes.empty()) {
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  }
  ASSERT_EQ(std::fclose(F), 0);
}

} // namespace

TEST(IndexIODurability, WriteReplacingRemovesStaleSiblingTmp) {
  const std::string Path = "index_io_test_durable.hmai";
  const std::string Tmp = Path + ".tmp";

  // A previous writer died between creating its tmp file and renaming
  // it. The next write must clear the debris and succeed -- not fail,
  // and not layer its bytes into the stale file.
  plantFile(Tmp, "stale debris from a crashed writer");

  AlphaHashIndex<> Live({/*Shards=*/8, HashSchema::DefaultSeed});
  Live.insertBatch(dupHeavyCorpus(99), 1);
  std::string Image = saveIndexBytes(Live);
  std::string Error;
  ASSERT_TRUE(writeFileReplacing(Path, Image, &Error)) << Error;

  std::string Back;
  ASSERT_TRUE(readFileBytes(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, Image); // Bit-for-bit the new image, debris-free.
  std::FILE *Gone = std::fopen(Tmp.c_str(), "rb");
  EXPECT_EQ(Gone, nullptr) << "stale .tmp must not survive the write";
  if (Gone)
    std::fclose(Gone);

  std::remove(Path.c_str());
}

TEST(IndexIODurability, CrashWindowGarbageTmpNeverShadowsCommittedFile) {
  const std::string Path = "index_io_test_crashwin.hmai";
  const std::string Tmp = Path + ".tmp";

  // A committed, valid index...
  AlphaHashIndex<> Live({/*Shards=*/8, HashSchema::DefaultSeed});
  Live.insertBatch(dupHeavyCorpus(7), 1);
  std::string Image = saveIndexBytes(Live);
  std::string Error;
  ASSERT_TRUE(writeFileReplacing(Path, Image, &Error)) << Error;

  // ...then a writer crashes mid-write, leaving garbage at the tmp
  // path. The committed file must reopen untouched: the crash window
  // never corrupts the target name, only the sibling.
  plantFile(Tmp, "HMAIgarbage that is not a full index image");

  auto Reopened = MappedIndex<Hash128>::open(Path);
  ASSERT_TRUE(Reopened.ok()) << Reopened.Error;
  EXPECT_TRUE(Reopened.Reader->verify());
  EXPECT_EQ(Reopened.Reader->numClasses(), Live.numClasses());
  EXPECT_EQ(saveIndexBytes(*restoreVerified<Hash128>(
                Reopened.Reader->imageBytes())),
            Image);

  // And the *next* successful write clears the debris as a side effect.
  ASSERT_TRUE(writeFileReplacing(Path, Image, &Error)) << Error;
  std::FILE *Gone = std::fopen(Tmp.c_str(), "rb");
  EXPECT_EQ(Gone, nullptr);
  if (Gone)
    std::fclose(Gone);

  std::remove(Path.c_str());
}
