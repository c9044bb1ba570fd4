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

  IndexLoadResult<Hash128> R = loadIndexBytes<Hash128>(Bytes);
  ASSERT_TRUE(R.ok()) << R.Error << " at byte " << R.ErrorPos;
  EXPECT_EQ(R.Index->numShards(), Live.numShards());
  EXPECT_EQ(R.Index->schema().seed(), Live.schema().seed());
  EXPECT_EQ(R.Index->numClasses(), Live.numClasses());
  expectSnapshotEq(Live, *R.Index);
  expectStatsEq(Live.stats(), R.Index->stats());

  // Saving the reopened index reproduces the file bit-for-bit: the
  // format is a deterministic function of the class table.
  EXPECT_EQ(saveIndexBytes(*R.Index), Bytes);
}

TEST(IndexIO, ReopenedIndexKeepsIngestingAndMergesDuplicates) {
  ExprContext Ctx;
  AlphaHashIndex<> Live;
  const Expr *E = parseT(Ctx, "(lam (x y) (x (y x)))");
  Live.insert(Ctx, E);

  IndexLoadResult<Hash128> R = loadIndexBytes<Hash128>(saveIndexBytes(Live));
  ASSERT_TRUE(R.ok()) << R.Error;

  // A renamed copy must merge into the restored class, verified against
  // the file-restored canonical bytes.
  const Expr *Renamed = parseT(Ctx, "(lam (p q) (p (q p)))");
  R.Index->insert(Ctx, Renamed);
  EXPECT_EQ(R.Index->numClasses(), 1u);
  auto Hit = R.Index->lookup(Ctx, E);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, 2u);
  IndexStats S = R.Index->stats();
  EXPECT_EQ(S.Inserted, 2u);
  EXPECT_EQ(S.Duplicates, 1u);
  EXPECT_EQ(S.VerifiedCollisions, 0u);
}

TEST(IndexIO, LoadCanReShardBecausePlacementIsAFunctionOfTheHash) {
  AlphaHashIndex<> Live({/*Shards=*/64, HashSchema::DefaultSeed});
  Live.insertBatch(dupHeavyCorpus(99), 1);
  std::string Bytes = saveIndexBytes(Live);

  IndexLoadResult<Hash128> R =
      loadIndexBytes<Hash128>(Bytes, /*OverrideShards=*/4);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Index->numShards(), 4u);
  expectSnapshotEq(Live, *R.Index);

  ExprContext Ctx;
  for (const auto &C : Live.snapshot()) {
    DeserializeResult D = deserializeExpr(Ctx, C.CanonicalBytes);
    ASSERT_TRUE(D.ok());
    auto Hit = R.Index->lookup(Ctx, D.E);
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

  IndexLoadResult<Hash16> Re = loadIndexBytes<Hash16>(saveIndexBytes(Live));
  ASSERT_TRUE(Re.ok()) << Re.Error << " at byte " << Re.ErrorPos;
  expectSnapshotEq(Live, *Re.Index);
  expectStatsEq(LiveStats, Re.Index->stats());

  // The two colliding classes resolve separately on the reopened index:
  // the fallback decodes the *restored* bytes and refuses the merge.
  auto HitA = Re.Index->lookup(Ctx, A);
  auto HitB = Re.Index->lookup(Ctx, B);
  ASSERT_TRUE(HitA.has_value());
  ASSERT_TRUE(HitB.has_value());
  EXPECT_EQ(HitA->Hash, HitB->Hash);
  EXPECT_EQ(HitA->Count, 2u);
  EXPECT_EQ(HitB->Count, 1u);
  EXPECT_NE(HitA->CanonicalBytes, HitB->CanonicalBytes);

  // And re-inserting either member merges into the right class.
  Re.Index->insert(Ctx, alphaRename(Ctx, R, B));
  EXPECT_EQ(Re.Index->lookup(Ctx, B)->Count, 2u);
  EXPECT_EQ(Re.Index->lookup(Ctx, A)->Count, 2u);
  EXPECT_EQ(Re.Index->numClasses(), Live.numClasses());
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
  IndexLoadResult<Hash128> Re = loadIndexBytes<Hash128>(saveIndexBytes(Live));
  ASSERT_TRUE(Re.ok()) << Re.Error;

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
    auto FromFile = Re.Index->lookupBatch(Queries, Threads);
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

} // namespace

TEST(IndexIO, MalformedFilesAreRejectedWithDiagnostics) {
  std::string Good = validIndexBytes();
  ASSERT_TRUE(loadIndexBytes<Hash128>(Good).ok());

  {
    auto R = loadIndexBytes<Hash128>("");
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("magic"), std::string::npos) << R.Error;
  }
  {
    auto R = loadIndexBytes<Hash128>("HMACnope");
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("magic"), std::string::npos) << R.Error;
  }
  {
    auto R = loadIndexBytes<Hash128>(std::string_view(Good).substr(0, 40));
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("truncated header"), std::string::npos) << R.Error;
  }
  {
    std::string Bad = Good;
    Bad[4] = 99; // version
    auto R = loadIndexBytes<Hash128>(Bad);
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("unsupported index version"), std::string::npos)
        << R.Error;
    EXPECT_EQ(R.ErrorPos, 4u);
  }
  {
    std::string Bad = Good;
    Bad[20] = 3; // shard count: not a power of two
    auto R = loadIndexBytes<Hash128>(Bad);
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("power of two"), std::string::npos) << R.Error;
  }
  {
    std::string Bad = Good;
    ++Bad[24]; // total class count no longer matches the directory
    auto R = loadIndexBytes<Hash128>(Bad);
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("directory sums"), std::string::npos) << R.Error;
  }
  {
    // Chop the file inside the tables: some shard's table overruns.
    auto R = loadIndexBytes<Hash128>(
        std::string_view(Good).substr(0, Good.size() / 2));
    ASSERT_FALSE(R.ok());
    EXPECT_FALSE(R.Error.empty());
  }
  {
    // Width mismatch: a b=128 file read by a b=64 instantiation.
    auto R = loadIndexBytes<Hash64>(Good);
    ASSERT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("b=128"), std::string::npos) << R.Error;
    EXPECT_NE(R.Error.find("b=64"), std::string::npos) << R.Error;
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

  // The eager loader accepts v1 and restores the identical index.
  IndexLoadResult<Hash128> L = loadIndexBytes<Hash128>(V1);
  ASSERT_TRUE(L.ok()) << L.Error;
  expectSnapshotEq(Live, *L.Index);
  expectStatsEq(Live.stats(), L.Index->stats());

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

  // Round-trips are bit-identical within each version, and upgrading a
  // v1 file (load, save at the default version) reproduces the direct
  // v2 image -- the sidecar is a pure function of the class table.
  EXPECT_EQ(saveIndexBytes(*L.Index, /*FormatVersion=*/1), V1);
  EXPECT_EQ(saveIndexBytes(*L.Index), V2);
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
// Adversarial battery: deterministic corruption sweep over both read
// paths
//
// The loader (`loadIndexBytes`, O(classes) validation up front) and the
// mapped reader (`MappedIndex::open`, O(shards) probe + `verify()` deep
// check + defensively bounds-checked reads) must agree on every image:
//
//     loadIndexBytes(image).ok()  ==  open(image).ok() && verify()
//
// and a rejection must be clean (diagnostic + position, no OOB). For
// images that survive -- including semantically corrupt but structurally
// valid ones (stats/seed flips, overlapping blob ranges) -- both paths
// must also *answer identically* and never read out of bounds, which the
// HMA_SANITIZE CI job enforces with ASan.
//===----------------------------------------------------------------------===//

namespace {

/// Drive one (possibly corrupted) image through both read paths and
/// enforce the acceptance-parity contract above. \p MustReject upgrades
/// "both agree" to "both reject".
void expectPathsAgreeOn(const std::string &Image,
                        const std::vector<std::string> &Queries,
                        bool MustReject, const std::string &What) {
  IndexLoadResult<Hash128> L = loadIndexBytes<Hash128>(Image);
  MappedIndex<Hash128>::OpenResult M = MappedIndex<Hash128>::openBytes(Image);
  std::string VerifyError;
  size_t VerifyPos = 0;
  bool MappedOk = M.ok() && M.Reader->verify(&VerifyError, &VerifyPos);
  EXPECT_EQ(L.ok(), MappedOk)
      << What << ": loader says " << (L.ok() ? "ok" : L.Error)
      << "; mapped says "
      << (M.ok() ? (MappedOk ? "ok" : VerifyError) : M.Error);
  if (MustReject) {
    EXPECT_FALSE(L.ok()) << What;
    EXPECT_FALSE(MappedOk) << What;
  }
  if (!L.ok()) {
    EXPECT_FALSE(L.Error.empty()) << What;
  }
  if (M.ok() && !MappedOk) {
    EXPECT_FALSE(VerifyError.empty()) << What;
  }

  // Whatever was accepted -- or merely *opened*, for a deep corruption
  // the O(shards) probe cannot see -- must serve queries, stats and
  // snapshots without reading out of bounds. When both paths accept,
  // they must also answer identically.
  std::vector<std::optional<LookupResult<Hash128>>> FromLoaded, FromMapped;
  if (L.ok())
    FromLoaded = L.Index->lookupBatch(Queries, 2);
  if (M.ok()) {
    FromMapped = M.Reader->lookupBatch(Queries, 2);
    M.Reader->snapshot();
    M.Reader->stats();
    M.Reader->shardLoads();
  }
  if (L.ok() && M.ok())
    expectSameLookupAnswers(FromLoaded, FromMapped, What);
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

} // namespace

TEST(IndexIOAdversarial, TruncationAtEveryRegionBoundaryRejectsBothPaths) {
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
    expectPathsAgreeOn(F.Image.substr(0, Cut), F.Queries,
                       /*MustReject=*/true,
                       "truncated at byte " + std::to_string(Cut));
  }
}

TEST(IndexIOAdversarial, HeaderBitFlipSweepKeepsBothPathsInAgreement) {
  AdversarialFixture F = singleShardFixture();
  for (size_t Pos = 0; Pos != iio::headerSize(iio::Version); ++Pos) {
    for (unsigned char Bit : {0x01, 0x80}) {
      std::string Bad = F.Image;
      Bad[Pos] = static_cast<char>(static_cast<unsigned char>(Bad[Pos]) ^ Bit);
      // Structural fields must reject; the seed ([8,16): a different --
      // valid -- hash family) and the stats ([32,80): counters) yield
      // well-formed images that must survive and stay in agreement. The
      // sidecar offset/length ([80,96)) are structural again: the
      // sidecar must be the exact tail of the file.
      bool Structural = Pos < 8 || (Pos >= 16 && Pos < 32) || Pos >= 80;
      expectPathsAgreeOn(Bad, F.Queries, /*MustReject=*/Structural,
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

  // Out-of-bounds blob ranges: every variant must reject on both paths.
  expectPathsAgreeOn(patchWord64(F.Image, OffsetPos(1), 0), F.Queries,
                     /*MustReject=*/true, "blob offset -> header");
  expectPathsAgreeOn(patchWord64(F.Image, OffsetPos(1), F.TablesStart),
                     F.Queries, true, "blob offset -> tables region");
  expectPathsAgreeOn(patchWord64(F.Image, OffsetPos(1), Size), F.Queries,
                     true, "blob offset -> EOF");
  expectPathsAgreeOn(patchWord64(F.Image, OffsetPos(1), ~uint64_t(0)),
                     F.Queries, true, "blob offset -> u64 max");
  expectPathsAgreeOn(patchWord64(F.Image, LengthPos(1), Size), F.Queries,
                     true, "blob length -> file size");
  expectPathsAgreeOn(patchWord64(F.Image, LengthPos(1), ~uint64_t(0)),
                     F.Queries, true, "blob length -> u64 max (overflow)");
  // Offset+length arithmetic must not wrap around.
  {
    std::string Bad = patchWord64(F.Image, OffsetPos(1), Size - 1);
    Bad = patchWord64(std::move(Bad), LengthPos(1), ~uint64_t(0) - 2);
    expectPathsAgreeOn(Bad, F.Queries, true, "offset+length wraps");
  }

  // An unsorted table: swap two adjacent records. (b=128 hashes are
  // distinct, so one of the two orders must violate sortedness.)
  {
    std::string Bad = F.Image;
    for (size_t B = 0; B != F.RecSize; ++B)
      std::swap(Bad[RecPos(0) + B], Bad[RecPos(1) + B]);
    expectPathsAgreeOn(Bad, F.Queries, true, "swapped records 0 and 1");
  }

  // Overlapping blob ranges -- record 1 re-pointed at record 0's blob --
  // are structurally valid: both paths must accept, answer identically
  // (the aliased class simply fails exact verification for its old
  // members), and never read out of bounds.
  {
    uint64_t Off0 = iio::getWordLE(F.Image.data() + OffsetPos(0), 8);
    uint64_t Len0 = iio::getWordLE(F.Image.data() + LengthPos(0), 8);
    std::string Bad = patchWord64(F.Image, OffsetPos(1), Off0);
    Bad = patchWord64(std::move(Bad), LengthPos(1), Len0);
    expectPathsAgreeOn(Bad, F.Queries, /*MustReject=*/false,
                       "record 1 aliases record 0's blob");
  }

  // A flipped member count is semantically wrong but structurally fine:
  // accepted by both, in agreement.
  expectPathsAgreeOn(patchWord64(F.Image, CountPos(2), 41), F.Queries,
                     /*MustReject=*/false, "count patched");

  // A flipped low hash byte either breaks sortedness (reject) or yields
  // a sorted-but-wrong table (accept; queries for the original class
  // miss identically on both paths). Either way the paths agree.
  for (size_t I = 0; I != F.NumRecords; ++I) {
    std::string Bad = F.Image;
    Bad[RecPos(I)] =
        static_cast<char>(static_cast<unsigned char>(Bad[RecPos(I)]) ^ 0x01);
    expectPathsAgreeOn(Bad, F.Queries, /*MustReject=*/false,
                       "hash bit flip in record " + std::to_string(I));
  }
}

TEST(IndexIOAdversarial, DirectoryCorruptionsReject) {
  AdversarialFixture F = singleShardFixture();
  const size_t DirPos = iio::headerSize(iio::Version);
  const size_t Size = F.Image.size();
  // Table offset past EOF / count too large for the remaining bytes.
  expectPathsAgreeOn(patchWord64(F.Image, DirPos, Size + 1), F.Queries, true,
                     "table offset past EOF");
  expectPathsAgreeOn(patchWord64(F.Image, DirPos + 8, F.NumRecords + 1000),
                     F.Queries, true, "table count overruns");
  // Count lowered: directory no longer sums to the header's class count.
  expectPathsAgreeOn(patchWord64(F.Image, DirPos + 8, F.NumRecords - 1),
                     F.Queries, true, "table count undercounts");
  // Table re-pointed at the blob region: record fields decode as noise;
  // both paths must agree on the outcome and stay in bounds.
  expectPathsAgreeOn(patchWord64(F.Image, DirPos, F.BytesStart), F.Queries,
                     /*MustReject=*/false, "table aliases bytes region");
}

TEST(IndexIOAdversarial, SidecarContentCorruptionsRejectBothPaths) {
  // The sidecar is derived data -- any slot whose BFS hash or rank word
  // disagrees with the shard's record table must reject on both paths
  // (the loader validates per shard; the mapped reader's verify() runs
  // the same check), or the Eytzinger engine would answer differently
  // from the scalar one.
  AdversarialFixture F = singleShardFixture();
  const unsigned HashBytes = HashWidth<Hash128>::Bits / 8;
  const size_t RanksStart = F.SidecarStart + F.NumRecords * HashBytes;

  for (size_t Slot : {size_t(0), F.NumRecords / 2, F.NumRecords - 1}) {
    // Flip one byte of the slot's BFS-ordered hash copy.
    std::string BadHash = F.Image;
    size_t HashPos = F.SidecarStart + Slot * HashBytes;
    BadHash[HashPos] = static_cast<char>(
        static_cast<unsigned char>(BadHash[HashPos]) ^ 0x01);
    expectPathsAgreeOn(BadHash, F.Queries, /*MustReject=*/true,
                       "sidecar hash flip in slot " + std::to_string(Slot));

    // Point the slot's rank word at a different (in-range) record.
    std::string BadRank = F.Image;
    size_t RankPos = RanksStart + Slot * iio::RankEntrySize;
    BadRank[RankPos] = static_cast<char>(
        static_cast<unsigned char>(BadRank[RankPos]) ^ 0x01);
    expectPathsAgreeOn(BadRank, F.Queries, /*MustReject=*/true,
                       "sidecar rank flip in slot " + std::to_string(Slot));
  }

  // A rank word far out of range must also reject cleanly (and must
  // never index out of bounds even through the unverified open path).
  expectPathsAgreeOn(
      patchWord64(F.Image, RanksStart, ~uint64_t(0)), F.Queries,
      /*MustReject=*/true, "sidecar ranks 0 and 1 -> u32 max");
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
  EXPECT_EQ(saveIndexBytes(*loadIndexFile<Hash128>(Path).Index), Image);

  // And the *next* successful write clears the debris as a side effect.
  ASSERT_TRUE(writeFileReplacing(Path, Image, &Error)) << Error;
  std::FILE *Gone = std::fopen(Tmp.c_str(), "rb");
  EXPECT_EQ(Gone, nullptr);
  if (Gone)
    std::fclose(Gone);

  std::remove(Path.c_str());
}
