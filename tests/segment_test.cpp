//===- tests/segment_test.cpp - Segmented-index layout and semantics --------===//
///
/// \file
/// The segmented-index contract, in four parts:
///
///  1. **Manifest codec adversarial sweep**: every torn, bit-flipped or
///     malformed `MANIFEST` is rejected before any segment is touched
///     (truncation at every byte, checksum flips, bad magic/version,
///     path-shaped segment names, trailing garbage).
///  2. **Open acceptance parity**: `SegmentSet::open` rejects a manifest
///     naming a missing, resized or incompatible segment with the same
///     decisiveness, while *unreferenced* segment files are ignored and
///     reported (the crash-window rule: the manifest is the single
///     source of truth).
///  3. **The differential battery**: a segmented index built as
///     create + append + append answers byte-identically -- lookups,
///     batch lookups, snapshots, stats -- to a single `HMAI` file built
///     from the same corpus in the same order, at b=128 and under
///     forced b=16 collisions, both before and after compaction.
///  4. **Crash-window + saturation + concurrent compaction**: a power
///     cut (\ref FaultIoEnv) between segment write and manifest swap
///     leaves a servable old index plus one collectable orphan; cross-segment
///     count sums clamp at u64 instead of wrapping; and \ref
///     compactSegments, run from another thread, merges under a live
///     reader whose pinned mappings keep answering after the old files
///     are unlinked.
///  5. **Compaction byte identity**: the compacted segment's file equals
///     the image of the old materializing merge (restored and saved) on
///     alpha-renamed duplicates, b=16 collisions, a representative that
///     needs canonicalizing, a malformed entry and mixed shard counts.
///
//===----------------------------------------------------------------------===//

#include "index/SegmentCompactor.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "gen/RandomExpr.h"
#include "index/IndexIO.h"
#include "index/SegmentManifest.h"
#include "index/SegmentSet.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include <ctime>
#include <sys/time.h>
#include <unistd.h>

using namespace hma;

namespace {

/// A self-cleaning segmented-index directory: every file the manifest
/// names, every orphan, the manifest and the directory itself vanish
/// when the fixture goes out of scope (tests may fail mid-way; later
/// suites must not see the leftovers).
struct TempSegmentDir {
  std::string Dir;

  explicit TempSegmentDir(std::string Name) : Dir(std::move(Name)) {}
  ~TempSegmentDir() {
    std::string Bytes;
    SegmentManifest M;
    if (readFileBytes(manifestPathFor(Dir), Bytes, nullptr) &&
        SegmentManifest::decode(Bytes, M))
      for (const SegmentEntry &E : M.Segments)
        std::remove((Dir + "/" + E.Name).c_str());
    GcOptions Now;
    Now.MinAgeSeconds = 0; // cleanup: no writer can be in flight here
    gcSegmentDir(Dir, nullptr, Now);
    std::remove(manifestPathFor(Dir).c_str());
    ::rmdir(Dir.c_str());
  }
};

/// Mostly-unique corpus with a sprinkle of alpha-renamed duplicates.
std::vector<std::string> corpus(ExprContext &Ctx, Rng &R, int N) {
  std::vector<std::string> Blobs;
  const Expr *Prev = nullptr;
  for (int I = 0; I != N; ++I) {
    const Expr *E = genBalanced(Ctx, R, 18 + I % 11);
    Blobs.push_back(serializeExpr(Ctx, E));
    if (I % 5 == 0 && Prev)
      Blobs.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, Prev)));
    Prev = E;
  }
  return Blobs;
}

/// The four header-stat fields append-time reconciliation guarantees
/// across the segment/single-file divide. (FallbackChecks and
/// VerifiedCollisions are runtime probe counters -- the segmented
/// reader's reconcile probes legitimately bump them differently.)
void expectIngestStatsEq(const IndexStats &A, const IndexStats &B) {
  EXPECT_EQ(A.Inserted, B.Inserted);
  EXPECT_EQ(A.NewClasses, B.NewClasses);
  EXPECT_EQ(A.Duplicates, B.Duplicates);
  EXPECT_EQ(A.DecodeErrors, B.DecodeErrors);
}

/// Build `Dir` as create(Base) + append(Delta1) + append(Delta2) and the
/// equivalent single-file index from the concatenated corpus, ingested
/// in the same order. Returns the reference index.
template <typename H>
std::unique_ptr<AlphaHashIndex<H>>
buildBoth(const std::string &Dir, const std::vector<std::string> &Base,
          const std::vector<std::string> &Delta1,
          const std::vector<std::string> &Delta2, unsigned Shards) {
  typename AlphaHashIndex<H>::Options Opts;
  Opts.Shards = Shards;
  AlphaHashIndex<H> BaseIdx(Opts);
  BaseIdx.insertBatch(Base, 1);
  SegmentAppendResult C = createSegmentDir(Dir, BaseIdx);
  EXPECT_TRUE(C.Ok) << C.Error;
  SegmentAppendOptions AOpts;
  AOpts.Shards = Shards;
  SegmentAppendResult A1 = appendSegment<H>(Dir, Delta1, AOpts);
  EXPECT_TRUE(A1.Ok) << A1.Error;
  SegmentAppendResult A2 = appendSegment<H>(Dir, Delta2, AOpts);
  EXPECT_TRUE(A2.Ok) << A2.Error;

  auto Ref = std::make_unique<AlphaHashIndex<H>>(Opts);
  Ref->insertBatch(Base, 1);
  Ref->insertBatch(Delta1, 1);
  Ref->insertBatch(Delta2, 1);
  return Ref;
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. Manifest codec: round-trip and adversarial sweep
//===----------------------------------------------------------------------===//

namespace {

SegmentManifest sampleManifest() {
  SegmentManifest M;
  M.Seed = 0x1234abcd5678ef00ull;
  M.HashBits = 128;
  M.NextId = 7;
  M.Segments.push_back(SegmentEntry{"seg-000006.hmai", 4096, 100, 40});
  M.Segments.push_back(SegmentEntry{"seg-000001.hmai", 65536, 900, 900});
  return M;
}

} // namespace

TEST(SegmentManifest, EncodeDecodeRoundTripsEveryField) {
  SegmentManifest M = sampleManifest();
  std::string Bytes = M.encode();

  SegmentManifest Out;
  std::string Error;
  size_t ErrorPos = 0;
  ASSERT_TRUE(SegmentManifest::decode(Bytes, Out, &Error, &ErrorPos))
      << Error << " at byte " << ErrorPos;
  EXPECT_EQ(Out.Version, smf::Version);
  EXPECT_EQ(Out.Seed, M.Seed);
  EXPECT_EQ(Out.HashBits, M.HashBits);
  EXPECT_EQ(Out.NextId, M.NextId);
  ASSERT_EQ(Out.Segments.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    EXPECT_EQ(Out.Segments[I].Name, M.Segments[I].Name);
    EXPECT_EQ(Out.Segments[I].FileBytes, M.Segments[I].FileBytes);
    EXPECT_EQ(Out.Segments[I].Classes, M.Segments[I].Classes);
    EXPECT_EQ(Out.Segments[I].Fresh, M.Segments[I].Fresh);
  }
  EXPECT_EQ(Out.totalClasses(), 940u);
}

TEST(SegmentManifest, EveryTruncationIsRejected) {
  std::string Bytes = sampleManifest().encode();
  SegmentManifest Out;
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    EXPECT_FALSE(
        SegmentManifest::decode(std::string_view(Bytes.data(), Len), Out))
        << "truncation to " << Len << " of " << Bytes.size()
        << " bytes was accepted";
}

TEST(SegmentManifest, EverySingleBitFlipIsRejected) {
  // The tail checksum covers every preceding byte, and flips *in* the
  // checksum mismatch the recomputation: no single-bit corruption
  // anywhere in the file can decode.
  std::string Bytes = sampleManifest().encode();
  SegmentManifest Out;
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::string Flipped = Bytes;
    Flipped[I] = static_cast<char>(Flipped[I] ^ 0x10);
    EXPECT_FALSE(SegmentManifest::decode(Flipped, Out))
        << "bit flip at byte " << I << " was accepted";
  }
}

TEST(SegmentManifest, BadMagicIsRejectedAtByteZero) {
  std::string Bytes = sampleManifest().encode();
  Bytes[0] = 'X';
  SegmentManifest Out;
  std::string Error;
  size_t ErrorPos = 99;
  EXPECT_FALSE(SegmentManifest::decode(Bytes, Out, &Error, &ErrorPos));
  EXPECT_EQ(ErrorPos, 0u);
}

TEST(SegmentManifest, UnsupportedVersionIsRejectedWithValidChecksum) {
  // A future-versioned manifest with an *intact* checksum must still be
  // refused: rebuild the checksum over the bumped version so the
  // version gate (not the integrity gate) is what fires.
  std::string Bytes = sampleManifest().encode();
  Bytes[4] = 99; // version u32 LE at offset 4
  std::string Body = Bytes.substr(0, Bytes.size() - smf::ChecksumSize);
  uint64_t Sum = fnv1a64(Body);
  for (size_t I = 0; I != smf::ChecksumSize; ++I)
    Body.push_back(static_cast<char>((Sum >> (8 * I)) & 0xff));
  SegmentManifest Out;
  std::string Error;
  EXPECT_FALSE(SegmentManifest::decode(Body, Out, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(SegmentManifest, PathShapedSegmentNamesAreRejected) {
  for (const char *Evil :
       {"../escape.hmai", "sub/dir.hmai", "..", ".", "a\\b.hmai"}) {
    SegmentManifest M = sampleManifest();
    M.Segments[0].Name = Evil;
    SegmentManifest Out;
    std::string Error;
    EXPECT_FALSE(SegmentManifest::decode(M.encode(), Out, &Error))
        << "name '" << Evil << "' was accepted";
  }
}

TEST(SegmentManifest, TrailingBytesAfterChecksumAreRejected) {
  std::string Bytes = sampleManifest().encode();
  Bytes.push_back('\0');
  SegmentManifest Out;
  EXPECT_FALSE(SegmentManifest::decode(Bytes, Out));
}

TEST(SegmentManifest, TotalClassesSaturatesInsteadOfWrapping) {
  SegmentManifest M;
  M.Segments.push_back(SegmentEntry{"a", 0, 0, UINT64_MAX - 10});
  M.Segments.push_back(SegmentEntry{"b", 0, 0, 100});
  EXPECT_EQ(M.totalClasses(), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(saturatingAdd(5, 7), 12u);
}

//===----------------------------------------------------------------------===//
// 2. SegmentSet::open acceptance parity
//===----------------------------------------------------------------------===//

namespace {

/// A tiny two-segment directory (base + one delta) for the open sweep.
struct SmallDir : TempSegmentDir {
  std::vector<std::string> Base, Delta;

  explicit SmallDir(const char *Name) : TempSegmentDir(Name) {
    ExprContext Ctx;
    Rng R(501);
    Base = corpus(Ctx, R, 30);
    Delta = corpus(Ctx, R, 10);
    AlphaHashIndex<> BaseIdx({/*Shards=*/8, HashSchema::DefaultSeed});
    BaseIdx.insertBatch(Base, 1);
    SegmentAppendResult C = createSegmentDir(Dir, BaseIdx);
    EXPECT_TRUE(C.Ok) << C.Error;
    SegmentAppendOptions Opts;
    Opts.Shards = 8;
    SegmentAppendResult A = appendSegment<Hash128>(Dir, Delta, Opts);
    EXPECT_TRUE(A.Ok) << A.Error;
  }

  SegmentManifest manifest() const {
    std::string Bytes;
    SegmentManifest M;
    EXPECT_TRUE(readFileBytes(manifestPathFor(Dir), Bytes, nullptr));
    EXPECT_TRUE(SegmentManifest::decode(Bytes, M));
    return M;
  }
};

} // namespace

TEST(SegmentSet, MissingManifestAndMissingSegmentAreRejected) {
  auto NoDir = SegmentSet<>::open("segment_test.no_such_dir.tmp");
  EXPECT_FALSE(NoDir.ok());
  EXPECT_FALSE(isSegmentDir("segment_test.no_such_dir.tmp"));

  SmallDir D("segment_test.missing.tmp");
  EXPECT_TRUE(isSegmentDir(D.Dir));
  SegmentManifest M = D.manifest();
  ASSERT_EQ(M.Segments.size(), 2u);
  std::string Victim = D.Dir + "/" + M.Segments[0].Name;
  ASSERT_EQ(std::remove(Victim.c_str()), 0);

  auto R = SegmentSet<>::open(D.Dir);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find(M.Segments[0].Name), std::string::npos) << R.Error;
}

TEST(SegmentSet, SizeClassAndSeedMismatchesAreRejected) {
  SmallDir D("segment_test.mismatch.tmp");
  SegmentManifest Good = D.manifest();

  {
    SegmentManifest M = Good;
    M.Segments[0].FileBytes += 1;
    ASSERT_TRUE(writeManifestReplacing(D.Dir, M));
    auto R = SegmentSet<>::open(D.Dir);
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("bytes"), std::string::npos) << R.Error;
  }
  {
    SegmentManifest M = Good;
    M.Segments[1].Classes += 1;
    ASSERT_TRUE(writeManifestReplacing(D.Dir, M));
    auto R = SegmentSet<>::open(D.Dir);
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("classes"), std::string::npos) << R.Error;
  }
  {
    SegmentManifest M = Good;
    M.Seed ^= 1;
    ASSERT_TRUE(writeManifestReplacing(D.Dir, M));
    auto R = SegmentSet<>::open(D.Dir);
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("seed"), std::string::npos) << R.Error;
  }
  {
    SegmentManifest M = Good;
    M.Segments.clear();
    ASSERT_TRUE(writeManifestReplacing(D.Dir, M));
    auto R = SegmentSet<>::open(D.Dir);
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.ErrorPos, 20u); // the entry-count field
  }
  // A b=128 directory opened by a b=16 reader: width gate, byte 16.
  ASSERT_TRUE(writeManifestReplacing(D.Dir, Good));
  auto Wrong = SegmentSet<Hash16>::open(D.Dir);
  EXPECT_FALSE(Wrong.ok());
  EXPECT_EQ(Wrong.ErrorPos, 16u);

  // And the restored good manifest still opens and deep-verifies.
  auto R = SegmentSet<>::open(D.Dir);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Set->verify());
  EXPECT_EQ(R.Set->numSegments(), 2u);
}

TEST(SegmentSet, UnreferencedSegmentsAreReportedAndGcCollectsThem) {
  SmallDir D("segment_test.orphan.tmp");
  // Plant a stray segment-shaped file the manifest does not know.
  ASSERT_TRUE(writeFileReplacing(D.Dir + "/" + segmentFileName(99),
                                 "junk bytes", nullptr));
  // And non-segment-shaped files gc must leave alone: a `*.tmp` is debris
  // only when a writer's tmp name says so.
  ASSERT_TRUE(writeFileReplacing(D.Dir + "/notes.txt", "keep me", nullptr));
  ASSERT_TRUE(writeFileReplacing(D.Dir + "/notes.tmp", "keep me", nullptr));

  auto R = SegmentSet<>::open(D.Dir);
  ASSERT_TRUE(R.ok()) << R.Error; // orphans never fail the open
  ASSERT_EQ(R.Set->orphans().size(), 1u);
  EXPECT_EQ(R.Set->orphans()[0], segmentFileName(99));

  // With the default age guard the just-planted orphan is too young to
  // collect -- it could be a concurrent append's in-flight segment.
  std::string Error;
  EXPECT_TRUE(gcSegmentDir(D.Dir, &Error).empty());
  EXPECT_TRUE(Error.empty()) << Error;

  // Offline gc (no writers possible) opts out of the guard and collects.
  GcOptions Now;
  Now.MinAgeSeconds = 0;
  std::vector<std::string> Removed = gcSegmentDir(D.Dir, &Error, Now);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Removed.size(), 1u);
  EXPECT_EQ(Removed[0], segmentFileName(99));

  auto After = SegmentSet<>::open(D.Dir);
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_TRUE(After.Set->orphans().empty());
  for (const char *Name : {"/notes.txt", "/notes.tmp"}) {
    std::string Kept;
    EXPECT_TRUE(readFileBytes(D.Dir + Name, Kept, nullptr)) << Name;
    EXPECT_EQ(Kept, "keep me");
    std::remove((D.Dir + Name).c_str());
  }
}

//===----------------------------------------------------------------------===//
// 3. The differential battery
//===----------------------------------------------------------------------===//

TEST(SegmentedIndex, AnswersIdenticalToSingleFileRebuildAtB128) {
  TempSegmentDir D("segment_test.diff128.tmp");
  ExprContext Ctx;
  Rng R(9001);
  std::vector<std::string> Base = corpus(Ctx, R, 60);
  std::vector<std::string> Delta1 = corpus(Ctx, R, 25);
  std::vector<std::string> Delta2 = corpus(Ctx, R, 25);
  // Cross-segment duplicates: some delta blobs repeat base classes, so
  // union counts must sum across segments.
  Delta1.push_back(Base[3]);
  Delta1.push_back(Base[10]);
  Delta2.push_back(Base[3]);
  Delta2.push_back(Delta1[0]);
  // And one undecodable blob per stream: DecodeErrors must aggregate.
  Base.push_back("not a valid blob");
  Delta2.push_back("also not a valid blob");

  auto Ref = buildBoth<Hash128>(D.Dir, Base, Delta1, Delta2, /*Shards=*/8);

  auto Seg = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Seg.ok()) << Seg.Error;
  EXPECT_STREQ(Seg.Reader->backendName(), "segmented");
  EXPECT_EQ(Seg.Reader->set().numSegments(), 3u);
  EXPECT_TRUE(Seg.Reader->verify());

  EXPECT_EQ(Seg.Reader->numClasses(), Ref->numClasses());
  expectClassSummariesEq<Hash128>(Seg.Reader->snapshot(), Ref->snapshot());
  expectIngestStatsEq(Seg.Reader->stats(), Ref->stats());
  expectClassSummariesEq<Hash128>(Seg.Reader->largestClasses(5),
                                  Ref->largestClasses(5));

  // Query everything that was ingested plus alpha-renames and misses.
  std::vector<std::string> Queries;
  for (size_t I = 0; I < Base.size(); I += 3)
    Queries.push_back(Base[I]);
  for (const std::string &B : Delta1)
    Queries.push_back(B);
  for (const std::string &B : Delta2)
    Queries.push_back(B);
  for (int I = 0; I != 10; ++I)
    Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 21))); // misses
  expectSameLookupAnswers(Seg.Reader->lookupBatch(Queries, 2),
                          Ref->lookupBatch(Queries, 2),
                          "segmented-vs-single-file");

  // Compaction must not change a single answer.
  SegmentCompactResult C = compactSegments<Hash128>(D.Dir);
  ASSERT_TRUE(C.Ok) << C.Error;
  EXPECT_EQ(C.SegmentsBefore, 3u);
  EXPECT_EQ(C.SegmentsAfter, 1u);

  auto Compacted = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Compacted.ok()) << Compacted.Error;
  EXPECT_EQ(Compacted.Reader->set().numSegments(), 1u);
  EXPECT_TRUE(Compacted.Reader->verify());
  EXPECT_EQ(Compacted.Reader->numClasses(), Ref->numClasses());
  expectClassSummariesEq<Hash128>(Compacted.Reader->snapshot(),
                                  Ref->snapshot());
  expectSameLookupAnswers(Compacted.Reader->lookupBatch(Queries, 2),
                          Ref->lookupBatch(Queries, 2),
                          "compacted-vs-single-file");
  // The compacted segment's *class table* is bit-identical to saving the
  // reference index: re-serializing its classes through the restore path
  // reproduces the table bytes exactly (the header's stats block alone
  // may differ -- FallbackChecks/VerifiedCollisions are probe-time
  // counters the reconcile probes legitimately bump).
  EXPECT_EQ(saveIndexBytes(*AlphaHashIndex<Hash128>::restore(
                {/*Shards=*/8, HashSchema::DefaultSeed},
                Compacted.Reader->snapshot(), Ref->stats())),
            saveIndexBytes(*Ref));

  // Compacting a single segment is a no-op success.
  SegmentCompactResult Again = compactSegments<Hash128>(D.Dir);
  EXPECT_TRUE(Again.Ok);
  EXPECT_EQ(Again.SegmentsAfter, 1u);
}

namespace {

/// Birthday-search two non-alpha-equivalent expressions whose 16-bit
/// alpha-hashes collide (as in tests/mapped_index_test.cpp).
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

TEST(SegmentedIndex16, ForcedCollisionsResolveAcrossSegments) {
  // The hard case: colliding classes land in *different* segments, so
  // the cross-segment probe must refuse the same-hash wrong merge via
  // the exact-verify fallback against each segment's mapped bytes.
  TempSegmentDir D("segment_test.diff16.tmp");
  ExprContext Ctx;
  Rng R(4242);
  AlphaHashIndex<Hash16> Probe({/*Shards=*/4, HashSchema::DefaultSeed});
  AlphaHasher<Hash16> H(Ctx, Probe.schema());
  auto [A, B] = findColliding16(Ctx, R, H);
  ASSERT_NE(A, nullptr) << "no 16-bit collision found -- width suspect";

  std::vector<std::string> Base, Delta1, Delta2;
  Base.push_back(serializeExpr(Ctx, A));
  for (int I = 0; I != 15; ++I)
    Base.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 24)));
  Delta1.push_back(serializeExpr(Ctx, B)); // collides with base's A
  Delta1.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, A)));
  for (int I = 0; I != 6; ++I)
    Delta1.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 24)));
  Delta2.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, B)));
  Delta2.push_back(serializeExpr(Ctx, A));

  auto Ref = buildBoth<Hash16>(D.Dir, Base, Delta1, Delta2, /*Shards=*/4);

  auto Seg = SegmentedIndex<Hash16>::open(D.Dir);
  ASSERT_TRUE(Seg.ok()) << Seg.Error;
  EXPECT_TRUE(Seg.Reader->verify());
  EXPECT_EQ(Seg.Reader->numClasses(), Ref->numClasses());
  expectClassSummariesEq<Hash16>(Seg.Reader->snapshot(), Ref->snapshot());
  expectIngestStatsEq(Seg.Reader->stats(), Ref->stats());

  // The two colliding classes stay apart and carry union counts: A was
  // ingested 3x (base, delta1 rename, delta2), B 2x.
  auto HitA = Seg.Reader->lookup(Ctx, A);
  auto HitB = Seg.Reader->lookup(Ctx, B);
  ASSERT_TRUE(HitA.has_value());
  ASSERT_TRUE(HitB.has_value());
  EXPECT_EQ(HitA->Hash, HitB->Hash);
  EXPECT_EQ(HitA->Count, 3u);
  EXPECT_EQ(HitB->Count, 2u);
  EXPECT_NE(HitA->CanonicalBytes, HitB->CanonicalBytes);

  std::vector<std::string> Queries;
  Queries.push_back(serializeExpr(Ctx, A));
  Queries.push_back(serializeExpr(Ctx, B));
  Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, A)));
  Queries.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, B)));
  Queries.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 48)));
  expectSameLookupAnswers(Seg.Reader->lookupBatch(Queries, 2),
                          Ref->lookupBatch(Queries, 2), "b16-vs-single-file");

  ASSERT_TRUE(compactSegments<Hash16>(D.Dir).Ok);
  auto Compacted = SegmentedIndex<Hash16>::open(D.Dir);
  ASSERT_TRUE(Compacted.ok()) << Compacted.Error;
  expectClassSummariesEq<Hash16>(Compacted.Reader->snapshot(),
                                 Ref->snapshot());
  expectSameLookupAnswers(Compacted.Reader->lookupBatch(Queries, 2),
                          Ref->lookupBatch(Queries, 2),
                          "b16-compacted-vs-single-file");
}

//===----------------------------------------------------------------------===//
// 4. Crash window, saturation, background compaction
//===----------------------------------------------------------------------===//

namespace {

/// Append \p Delta to \p Dir with a power cut at the first I/O call of
/// its manifest swap: the segment file is written and durable, and the
/// manifest never names it -- the state a crash between the two leaves.
/// The call number comes from counting passes on \p Twin, a directory
/// in the same state as \p Dir: the append's calls, less those of the
/// manifest swap that ends it.
SegmentAppendResult appendCrashingAtManifestSwap(
    const std::string &Dir, const std::string &Twin,
    const std::vector<std::string> &Delta, SegmentAppendOptions Opts) {
  FaultIoEnv Append; // FailAtOp = 0: counts, never fires.
  Opts.Env = &Append;
  SegmentAppendResult Counted = appendSegment<Hash128>(Twin, Delta, Opts);
  EXPECT_TRUE(Counted.Ok) << Counted.Error;
  std::string Bytes;
  SegmentManifest M;
  EXPECT_TRUE(readFileBytes(manifestPathFor(Twin), Bytes, nullptr));
  EXPECT_TRUE(SegmentManifest::decode(Bytes, M));
  FaultIoEnv Swap;
  EXPECT_TRUE(writeManifestReplacing(Twin, M, nullptr, Swap));

  FaultPlan P;
  P.FailAtOp = Append.opCount() - Swap.opCount() + 1;
  P.PowerCut = true;
  FaultIoEnv Crash(P);
  Opts.Env = &Crash;
  SegmentAppendResult R = appendSegment<Hash128>(Dir, Delta, Opts);
  EXPECT_TRUE(Crash.tripped());
  return R;
}

} // namespace

TEST(SegmentAppend, CrashWindowLeavesOldIndexServableAndIdIsReused) {
  SmallDir D("segment_test.crash.tmp");
  SmallDir Twin("segment_test.crash_twin.tmp");
  auto Before = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Before.ok()) << Before.Error;
  const size_t ClassesBefore = Before.Reader->numClasses();
  const uint64_t NextIdBefore = Before.Reader->set().manifest().NextId;

  ExprContext Ctx;
  Rng R(77);
  std::vector<std::string> Delta = corpus(Ctx, R, 12);
  SegmentAppendOptions Opts;
  SegmentAppendResult A =
      appendCrashingAtManifestSwap(D.Dir, Twin.Dir, Delta, Opts);
  ASSERT_FALSE(A.Ok);
  EXPECT_FALSE(A.Error.empty());
  EXPECT_EQ(A.SegmentName, segmentFileName(NextIdBefore));

  // Reopen: the old index serves, the written segment is an orphan.
  auto Crashed = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Crashed.ok()) << Crashed.Error;
  EXPECT_EQ(Crashed.Reader->numClasses(), ClassesBefore);
  EXPECT_EQ(Crashed.Reader->set().manifest().NextId, NextIdBefore);
  ASSERT_EQ(Crashed.Reader->set().orphans().size(), 1u);
  EXPECT_EQ(Crashed.Reader->set().orphans()[0], A.SegmentName);
  expectClassSummariesEq<Hash128>(Crashed.Reader->snapshot(),
                                  Before.Reader->snapshot());

  // The retried append reuses the orphan's id, atomically replacing it:
  // afterwards the file is referenced and no orphan remains.
  SegmentAppendResult Retry = appendSegment<Hash128>(D.Dir, Delta, Opts);
  ASSERT_TRUE(Retry.Ok) << Retry.Error;
  EXPECT_EQ(Retry.SegmentName, A.SegmentName);

  auto After = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_TRUE(After.Reader->set().orphans().empty());
  EXPECT_EQ(After.Reader->numClasses(), ClassesBefore + Retry.Fresh);
  EXPECT_TRUE(After.Reader->verify());
}

// Regression for the gc-vs-append crash-window hazard: a gc that runs in
// the window between an append's segment write and its manifest swap
// sees the in-flight segment as "unreferenced" -- and must NOT delete
// it, or the imminent manifest commit would reference a missing file.
// The default age guard is what stands between the two.
TEST(SegmentedIndex, GcAgeGuardLeavesInFlightAppendSegmentsAlone) {
  SmallDir D("segment_test.gcguard.tmp");
  SmallDir Twin("segment_test.gcguard_twin.tmp");
  ExprContext Ctx;
  Rng R(88);
  std::vector<std::string> Delta = corpus(Ctx, R, 10);

  // Freeze an append in the crash window: segment written, manifest not
  // yet swapped. This is exactly what a concurrent gc would observe.
  SegmentAppendOptions Opts;
  Opts.Shards = 8;
  SegmentAppendResult A =
      appendCrashingAtManifestSwap(D.Dir, Twin.Dir, Delta, Opts);
  ASSERT_FALSE(A.Ok);
  {
    auto Frozen = SegmentSet<>::open(D.Dir);
    ASSERT_TRUE(Frozen.ok()) << Frozen.Error;
    ASSERT_EQ(Frozen.Set->orphans(), std::vector<std::string>{A.SegmentName});
  }

  // gc with the production default must leave the seconds-old file be.
  std::string Error;
  EXPECT_TRUE(gcSegmentDir(D.Dir, &Error).empty());
  EXPECT_TRUE(Error.empty()) << Error;

  // The append "resumes" (the retry path rewrites the same id) and
  // commits; the segment gc spared is now referenced and serving.
  SegmentAppendResult Retry = appendSegment<Hash128>(D.Dir, Delta, Opts);
  ASSERT_TRUE(Retry.Ok) << Retry.Error;
  EXPECT_EQ(Retry.SegmentName, A.SegmentName);
  auto After = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_TRUE(After.Reader->set().orphans().empty());
  EXPECT_TRUE(After.Reader->verify());

  // An *aged* orphan (a real crash leftover) is exactly what the default
  // gc exists to collect: backdate one past the guard and re-run.
  const std::string Orphan = D.Dir + "/" + segmentFileName(99);
  ASSERT_TRUE(writeFileReplacing(Orphan, "crash leftover", nullptr));
  struct timeval Old[2];
  Old[0].tv_sec = Old[1].tv_sec = ::time(nullptr) - 3600;
  Old[0].tv_usec = Old[1].tv_usec = 0;
  ASSERT_EQ(::utimes(Orphan.c_str(), Old), 0);
  std::vector<std::string> Removed = gcSegmentDir(D.Dir, &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Removed.size(), 1u);
  EXPECT_EQ(Removed[0], segmentFileName(99));
}

TEST(SegmentedIndex, CrossSegmentCountsSaturateInsteadOfWrapping) {
  TempSegmentDir D("segment_test.saturate.tmp");
  ExprContext Ctx;
  Rng R(31);
  const Expr *Root = uniquifyBinders(Ctx, genBalanced(Ctx, R, 20));
  AlphaHasher<Hash128> H(Ctx, HashSchema(HashSchema::DefaultSeed));
  const Hash128 Hash = H.hashRoot(Root);
  const std::string Bytes = serializeExpr(Ctx, Root);

  // Segment 1: the class with a near-overflow count (restore is the
  // no-rehash path file reopens use, so the hash is authoritative).
  auto Old = AlphaHashIndex<>::restore({/*Shards=*/4, HashSchema::DefaultSeed},
                                       {{Hash, UINT64_MAX - 5, Bytes}}, {});
  ASSERT_TRUE(createSegmentDir(D.Dir, *Old).Ok);

  // Segment 2: the same class again, enough to overflow. Hand-written
  // (append's blob ingest can only add one member per blob).
  auto New = AlphaHashIndex<>::restore({/*Shards=*/4, HashSchema::DefaultSeed},
                                       {{Hash, 100, Bytes}}, {});
  std::string Image = saveIndexBytes(*New);
  ASSERT_TRUE(writeFileReplacing(D.Dir + "/" + segmentFileName(2), Image,
                                 nullptr));
  std::string MBytes;
  SegmentManifest M;
  ASSERT_TRUE(readFileBytes(manifestPathFor(D.Dir), MBytes, nullptr));
  ASSERT_TRUE(SegmentManifest::decode(MBytes, M));
  M.Segments.insert(M.Segments.begin(),
                    SegmentEntry{segmentFileName(2), Image.size(), 1, 0});
  M.NextId = 3;
  ASSERT_TRUE(writeManifestReplacing(D.Dir, M));

  auto Seg = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Seg.ok()) << Seg.Error;
  EXPECT_EQ(Seg.Reader->numClasses(), 1u);
  auto Hit = Seg.Reader->lookup(Ctx, Root);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, UINT64_MAX); // clamped, not wrapped
  auto Snap = Seg.Reader->snapshot();
  ASSERT_EQ(Snap.size(), 1u);
  EXPECT_EQ(Snap[0].Count, UINT64_MAX);

  // Compaction preserves the clamp.
  ASSERT_TRUE(compactSegments<Hash128>(D.Dir).Ok);
  auto Compacted = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Compacted.ok()) << Compacted.Error;
  auto Hit2 = Compacted.Reader->lookup(Ctx, Root);
  ASSERT_TRUE(Hit2.has_value());
  EXPECT_EQ(Hit2->Count, UINT64_MAX);
}

TEST(SegmentCompactor, BackgroundMergeUnderALiveReader) {
  TempSegmentDir D("segment_test.bg.tmp");
  ExprContext Ctx;
  Rng R(88);
  std::vector<std::string> Base = corpus(Ctx, R, 40);
  AlphaHashIndex<> BaseIdx({/*Shards=*/8, HashSchema::DefaultSeed});
  BaseIdx.insertBatch(Base, 1);
  ASSERT_TRUE(createSegmentDir(D.Dir, BaseIdx).Ok);
  std::vector<std::vector<std::string>> Deltas;
  SegmentAppendOptions Opts;
  Opts.Shards = 8;
  for (int I = 0; I != 3; ++I) {
    Deltas.push_back(corpus(Ctx, R, 10));
    ASSERT_TRUE(appendSegment<Hash128>(D.Dir, Deltas.back(), Opts).Ok);
  }

  // Pin the 4-segment generation before the compactor runs: its mapped
  // segments must keep answering after compaction unlinks their files.
  auto Pinned = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Pinned.ok()) << Pinned.Error;
  ASSERT_EQ(Pinned.Reader->set().numSegments(), 4u);
  std::vector<std::string> Queries(Base.begin(), Base.begin() + 20);
  Queries.insert(Queries.end(), Deltas[2].begin(), Deltas[2].end());
  auto AnswersBefore = Pinned.Reader->lookupBatch(Queries, 1);

  {
    CompactorThread<Hash128> Compactor(D.Dir, /*PollMs=*/2);
    for (int Waited = 0; Compactor.compactions() == 0 && Waited < 5000;
         ++Waited)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(Compactor.compactions(), 1u) << Compactor.lastError();
  }

  // The pinned pre-compaction reader: same answers, from unlinked files.
  expectSameLookupAnswers(Pinned.Reader->lookupBatch(Queries, 1),
                          AnswersBefore, "pinned-after-unlink");

  // A fresh open sees the compacted single segment with equal answers.
  auto After = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(After.Reader->set().numSegments(), 1u);
  EXPECT_EQ(After.Reader->numClasses(), Pinned.Reader->numClasses());
  expectSameLookupAnswers(After.Reader->lookupBatch(Queries, 1),
                          AnswersBefore, "compacted-vs-pinned");
  expectClassSummariesEq<Hash128>(After.Reader->snapshot(),
                                  Pinned.Reader->snapshot());
}

//===----------------------------------------------------------------------===//
// Every ingest path stores the same representative
//===----------------------------------------------------------------------===//

TEST(IngestRepresentative, EveryPathStoresTheSerializerFormOfTheFirstMember) {
  // One member per class, so the first member does not depend on the
  // thread count. Each class must store
  // serializeExpr(uniquifyBinders(decode(B))), whatever the form of B.
  ExprContext Ctx;
  auto Ser = [&](const char *Src) {
    return serializeExpr(Ctx, parseT(Ctx, Src));
  };
  // Proven by the byte driver, but not what the serializer writes.
  const std::vector<std::string> ProvenReshaped = {
      // Name table not in first-use order: (lam (x) (x y)).
      handBlob({"y", "x"}, {TagLam, 1, TagApp, TagVar, 1, TagVar, 0}),
      // An unused name-table entry: (lam (x) (x 2)).
      handBlob({"x", "unused"}, {TagLam, 0, TagApp, TagVar, 0, TagConst, 4}),
      // An over-long varint for binder id 0: (lam (x) (x x)).
      handBlob({"x"}, {TagLam, 0x80, 0x00, TagApp, TagVar, 0, TagVar, 0}),
  };
  // Not proven: the byte path canonicalizes them.
  const std::vector<std::string> Canonicalized = {
      handBlob({"a", "a"}, {TagLam, 0, TagVar, 1}), // repeated spelling
      Ser("(lam (x) (lam (x) (x 5)))"),             // shadowed binder
      Ser("(let (x (f x)) (x 7))"), // let binder reused in its bound expr
  };
  const std::string Malformed = handBlob({"x"}, {TagLam, 0, TagVar, 1});

  ExprContext Boot;
  AlphaHasher<Hash128> Prover(Boot);
  for (const std::string &B : ProvenReshaped) {
    ExprContext D;
    EXPECT_TRUE(Prover.hashSerialized(B).has_value());
    EXPECT_NE(serializeExpr(D, deserializeExpr(D, B).E), B);
  }
  for (const std::string &B : Canonicalized)
    EXPECT_FALSE(Prover.hashSerialized(B).has_value());

  std::vector<std::string> Blobs = ProvenReshaped;
  Blobs.insert(Blobs.end(), Canonicalized.begin(), Canonicalized.end());
  Blobs.push_back(Ser("(lam (p q) (q p))")); // already in serializer form
  Blobs.push_back(Malformed);
  ReferenceIndex<Hash128> Reference;
  for (const std::string &B : Blobs)
    Reference.insert(B);
  const auto Want = Reference.snapshot();
  ASSERT_EQ(Want.size(), Blobs.size() - 1);

  auto Expect = [&](const IndexReader<Hash128> &Index, uint64_t DecodeErrors,
                    const std::string &What) {
    SCOPED_TRACE(What);
    expectClassSummariesEq(Index.snapshot(), Want);
    EXPECT_EQ(Index.stats().DecodeErrors, DecodeErrors);
  };
  for (unsigned Threads : {1u, 8u}) {
    AlphaHashIndex<> Index({4, HashSchema::DefaultSeed});
    const auto R = Index.insertBatch(Blobs, Threads);
    EXPECT_EQ(R.DecodeErrors, 1u);
    Expect(Index, 1, "insertBatch, threads=" + std::to_string(Threads));
  }
  {
    AlphaHashIndex<> Index({4, HashSchema::DefaultSeed});
    for (const std::string &B : Blobs)
      EXPECT_EQ(Index.insertSerialized(B).has_value(), B != Malformed);
    Expect(Index, 1, "insertSerialized");
  }
  {
    AlphaHashIndex<> Index({4, HashSchema::DefaultSeed});
    for (const std::string &B : Blobs) {
      DeserializeResult D = deserializeExpr(Ctx, B);
      if (D.ok())
        Index.insert(Ctx, D.E);
    }
    Expect(Index, 0, "insert(Ctx, E)");
  }
  TempSegmentDir D("segment_test.representative.tmp");
  ASSERT_TRUE(createSegmentDir(D.Dir, AlphaHashIndex<>()).Ok);
  ASSERT_TRUE(appendSegment<Hash128>(D.Dir, Blobs).Ok);
  auto Seg = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Seg.ok()) << Seg.Error;
  Expect(*Seg.Reader, 1, "appendSegment");
}

TEST(SegmentMerge, UnprovenAndUndecodableRepresentativesGroupExactly) {
  // Stored representatives need not be proven: a hand-written segment may
  // hold a shadowed blob. The merge canonicalizes it once to verify later
  // entries against it, and keeps the stored bytes as the
  // representative. A blob that does not decode matches only byte-equal
  // entries.
  ExprContext Ctx;
  auto Ser = [&](const char *Src) {
    return serializeExpr(Ctx, parseT(Ctx, Src));
  };
  const std::string Shadowed = Ser("(lam (x) (lam (x) (x 1)))");
  const std::string Renamed = Ser("(lam (a) (lam (b) (b 1)))");
  const std::string Other = Ser("(lam (a) (lam (b) (a 1)))");
  const std::string Malformed = handBlob({"x"}, {TagLam, 0, TagVar, 1});
  const Hash128 H(7, 7); // one duplicate-hash run holds them all
  auto Sorted = [](std::vector<ClassSummary<Hash128>> V) {
    std::sort(V.begin(), V.end(),
              detail::lessByHashThenBytes<ClassSummary<Hash128>>);
    return V;
  };
  const std::vector<std::vector<ClassSummary<Hash128>>> Streams = {
      Sorted({{H, 1, Shadowed}, {H, 2, Malformed}}), // oldest
      Sorted({{H, 10, Renamed}, {H, 20, Malformed}, {H, 40, Other}}),
  };
  std::vector<detail::SegmentClassRef<Hash128>> Refs;
  for (uint32_t Age = 0; Age != Streams.size(); ++Age)
    for (const ClassSummary<Hash128> &C : Streams[Age])
      Refs.push_back({{C.Hash, C.Count, C.CanonicalBytes}, Age});
  const auto Merged =
      detail::materialize(detail::mergeSegmentClasses<Hash128>(Refs));
  const auto Want = Sorted({{H, 11, Shadowed}, {H, 22, Malformed},
                            {H, 40, Other}});
  expectClassSummariesEq(Merged, Want);
}

//===----------------------------------------------------------------------===//
// 5. Compaction byte identity against the materializing merge
//===----------------------------------------------------------------------===//

namespace {

/// The segment merge as compaction ran it before it streamed from the
/// mappings: owning per-segment snapshots (oldest first, each sorted by
/// (hash, bytes)) merged k-way, grouped inside duplicate-hash runs only.
/// Kept as the reference the streaming merge must reproduce byte for
/// byte.
template <typename H>
std::vector<ClassSummary<H>>
referenceMerge(const std::vector<std::vector<ClassSummary<H>>> &Streams) {
  std::vector<ClassSummary<H>> Out;
  std::vector<size_t> Cur(Streams.size(), 0);
  struct Group {
    ClassSummary<H> Summary;
    std::string Canonical;
    bool Decodes = false;
  };
  std::vector<const ClassSummary<H> *> Run;
  std::vector<Group> Groups;
  ExprContext Boot;
  AlphaHasher<H> Prover(Boot);
  DecodeScratch Scratch;
  for (;;) {
    const H *MinHash = nullptr;
    for (size_t S = 0; S != Streams.size(); ++S)
      if (Cur[S] != Streams[S].size() &&
          (!MinHash || Streams[S][Cur[S]].Hash < *MinHash))
        MinHash = &Streams[S][Cur[S]].Hash;
    if (!MinHash)
      break;
    const H Hash = *MinHash;
    Run.clear();
    for (size_t S = 0; S != Streams.size(); ++S)
      for (; Cur[S] != Streams[S].size() && Streams[S][Cur[S]].Hash == Hash;
           ++Cur[S])
        Run.push_back(&Streams[S][Cur[S]]);
    Groups.clear();
    for (const ClassSummary<H> *E : Run) {
      Group *Home = nullptr;
      for (Group &G : Groups) {
        std::string_view Proven = G.Summary.CanonicalBytes;
        if (!G.Canonical.empty())
          Proven = G.Canonical;
        if (G.Summary.CanonicalBytes == E->CanonicalBytes ||
            (G.Decodes &&
             verifyCandidateBytes(Proven, E->CanonicalBytes, Scratch))) {
          Home = &G;
          break;
        }
      }
      if (Home) {
        Home->Summary.Count = saturatingAdd(Home->Summary.Count, E->Count);
        continue;
      }
      Group &G = Groups.emplace_back(Group{*E, {}, false});
      std::string_view Proven = G.Summary.CanonicalBytes;
      G.Decodes = detail::hashQuery(Prover, Proven, G.Canonical).has_value();
    }
    std::sort(Groups.begin(), Groups.end(),
              [](const Group &A, const Group &B) {
                return A.Summary.CanonicalBytes < B.Summary.CanonicalBytes;
              });
    for (Group &G : Groups)
      Out.push_back(std::move(G.Summary));
  }
  return Out;
}

/// What merging `Dir` does to its records: how many collapse into an
/// older class, and how many distinct classes share a hash with another.
struct MergeShape {
  size_t Collapsed = 0;
  size_t CollidingClasses = 0;
};

/// Compact `Dir` and assert the new segment's file bytes equal the image
/// the old path wrote: \ref referenceMerge over the segments' snapshots,
/// rebuilt through \ref AlphaHashIndex::restore (striped like the newest
/// segment, with the union's stats) and saved.
template <typename H>
void expectCompactionMatchesOldMerge(const std::string &Dir,
                                     MergeShape &Shape) {
  std::string Want;
  {
    auto Seg = SegmentedIndex<H>::open(Dir);
    ASSERT_TRUE(Seg.ok()) << Seg.Error;
    ASSERT_GE(Seg.Reader->set().numSegments(), 2u);
    std::vector<std::vector<ClassSummary<H>>> Streams;
    size_t Records = 0;
    const auto &Segments = Seg.Reader->set().segments();
    for (size_t I = Segments.size(); I != 0; --I) {
      Streams.push_back(Segments[I - 1]->snapshot());
      Records += Streams.back().size();
    }
    std::vector<ClassSummary<H>> Merged = referenceMerge<H>(Streams);
    Shape.Collapsed = Records - Merged.size();
    for (size_t I = 0; I != Merged.size(); ++I)
      if ((I != 0 && Merged[I - 1].Hash == Merged[I].Hash) ||
          (I + 1 != Merged.size() && Merged[I + 1].Hash == Merged[I].Hash))
        ++Shape.CollidingClasses;
    Want = saveIndexBytes(*AlphaHashIndex<H>::restore(
        {Seg.Reader->numShards(), Seg.Reader->schema().seed()},
        std::move(Merged), Seg.Reader->stats()));
  }
  SegmentCompactResult C = compactSegments<H>(Dir);
  ASSERT_TRUE(C.Ok) << C.Error;
  std::string MBytes;
  SegmentManifest M;
  ASSERT_TRUE(readFileBytes(manifestPathFor(Dir), MBytes, nullptr));
  ASSERT_TRUE(SegmentManifest::decode(MBytes, M));
  ASSERT_EQ(M.Segments.size(), 1u);
  std::string Got;
  ASSERT_TRUE(readFileBytes(Dir + "/" + M.Segments[0].Name, Got, nullptr));
  ASSERT_EQ(Got.size(), Want.size());
  EXPECT_TRUE(Got == Want) << "compacted image differs from the old merge's";
}

/// Add a hand-written segment holding exactly \p Classes (trusted hashes,
/// any bytes) as the newest segment of `Dir`, creating the directory if
/// it holds no index yet.
template <typename H>
void addHandSegment(const std::string &Dir,
                    std::vector<ClassSummary<H>> Classes, unsigned Shards) {
  auto Index = AlphaHashIndex<H>::restore({Shards, HashSchema::DefaultSeed},
                                          std::move(Classes), {});
  if (!isSegmentDir(Dir)) {
    ASSERT_TRUE(createSegmentDir(Dir, *Index).Ok);
    return;
  }
  std::string MBytes;
  SegmentManifest M;
  ASSERT_TRUE(readFileBytes(manifestPathFor(Dir), MBytes, nullptr));
  ASSERT_TRUE(SegmentManifest::decode(MBytes, M));
  const std::string Image = saveIndexBytes(*Index);
  const std::string Name = segmentFileName(M.NextId);
  ASSERT_TRUE(writeFileReplacing(Dir + "/" + Name, Image, nullptr));
  M.Segments.insert(M.Segments.begin(),
                    SegmentEntry{Name, Image.size(), Index->numClasses(), 0});
  M.NextId += 1;
  ASSERT_TRUE(writeManifestReplacing(Dir, M));
}

/// Alpha-renamed copies of every \p Step-th blob of \p From.
std::vector<std::string> renamedCopies(ExprContext &Ctx, Rng &R,
                                       const std::vector<std::string> &From,
                                       size_t Step) {
  std::vector<std::string> Out;
  for (size_t I = 0; I < From.size(); I += Step) {
    DeserializeResult D = deserializeExpr(Ctx, From[I]);
    EXPECT_TRUE(D.ok());
    Out.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, D.E)));
  }
  return Out;
}

/// The hash of the class \p Blob belongs to, as ingest computes it.
template <typename H> H classHash(std::string_view Blob) {
  ExprContext Boot;
  AlphaHasher<H> Hasher(Boot, HashSchema(HashSchema::DefaultSeed));
  std::string Canonical;
  std::optional<H> Hash = detail::hashQuery(Hasher, Blob, Canonical);
  EXPECT_TRUE(Hash.has_value());
  return Hash.value_or(H{});
}

} // namespace

TEST(CompactionBytes, CrossSegmentAlphaRenamedDuplicates) {
  TempSegmentDir D("segment_test.bytes_renamed.tmp");
  ExprContext Ctx;
  Rng R(2207);
  std::vector<std::string> Base = corpus(Ctx, R, 300);
  std::vector<std::string> Delta1 = renamedCopies(Ctx, R, Base, 3);
  for (std::string &B : corpus(Ctx, R, 60))
    Delta1.push_back(std::move(B));
  std::vector<std::string> Delta2 = renamedCopies(Ctx, R, Delta1, 2);
  for (size_t I = 0; I < Base.size(); I += 7)
    Delta2.push_back(Base[I]); // byte-equal to the oldest representative
  buildBoth<Hash128>(D.Dir, Base, Delta1, Delta2, /*Shards=*/8);
  MergeShape Shape;
  expectCompactionMatchesOldMerge<Hash128>(D.Dir, Shape);
  EXPECT_GT(Shape.Collapsed, 100u);
}

TEST(CompactionBytes, ForcedB16CollisionsKeepInequivalentClassesApart) {
  TempSegmentDir D("segment_test.bytes_b16.tmp");
  ExprContext Ctx;
  Rng R(5150);
  AlphaHasher<Hash16> H(Ctx, HashSchema(HashSchema::DefaultSeed));
  auto [A, B] = findColliding16(Ctx, R, H);
  ASSERT_NE(A, nullptr) << "no 16-bit collision found -- width suspect";
  // About 2,000 classes over 2^16 hashes: dozens of birthday collisions
  // on top of the forced pair, spread across the three segments.
  std::vector<std::string> Base = corpus(Ctx, R, 1400);
  Base.push_back(serializeExpr(Ctx, A));
  std::vector<std::string> Delta1 = renamedCopies(Ctx, R, Base, 4);
  Delta1.push_back(serializeExpr(Ctx, B)); // collides with base's A
  for (std::string &Blob : corpus(Ctx, R, 500))
    Delta1.push_back(std::move(Blob));
  std::vector<std::string> Delta2 = renamedCopies(Ctx, R, Delta1, 3);
  Delta2.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, A)));
  Delta2.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, B)));
  buildBoth<Hash16>(D.Dir, Base, Delta1, Delta2, /*Shards=*/4);
  MergeShape Shape;
  expectCompactionMatchesOldMerge<Hash16>(D.Dir, Shape);
  EXPECT_GT(Shape.Collapsed, 100u);
  EXPECT_GE(Shape.CollidingClasses, 10u);
}

TEST(CompactionBytes, RepresentativeThatNeedsCanonicalizing) {
  // The oldest segment stores a shadowed spelling; the merge proves it by
  // canonicalizing a copy and verifies the newer renamed spelling against
  // that, keeping the stored bytes as the representative.
  TempSegmentDir D("segment_test.bytes_shadowed.tmp");
  ExprContext Ctx;
  Rng R(61);
  auto Ser = [&](const char *Src) {
    return serializeExpr(Ctx, parseT(Ctx, Src));
  };
  const std::string Shadowed = Ser("(lam (x) (lam (x) (x 1)))");
  const std::string Renamed = Ser("(lam (a) (lam (b) (b 1)))");
  const std::string Other = Ser("(lam (a) (lam (b) (a 1)))");
  std::vector<ClassSummary<Hash128>> Oldest = {
      {classHash<Hash128>(Shadowed), 3, Shadowed}};
  AlphaHashIndex<Hash128> Filler({4, HashSchema::DefaultSeed});
  Filler.insertBatch(corpus(Ctx, R, 80), 1);
  for (ClassSummary<Hash128> &C : Filler.snapshot())
    Oldest.push_back(std::move(C));
  addHandSegment<Hash128>(D.Dir, std::move(Oldest), /*Shards=*/4);
  ASSERT_TRUE(appendSegment<Hash128>(D.Dir, {Renamed, Other, Renamed}).Ok);
  ASSERT_TRUE(appendSegment<Hash128>(D.Dir, {Shadowed, Renamed}).Ok);
  MergeShape Shape;
  expectCompactionMatchesOldMerge<Hash128>(D.Dir, Shape);
  EXPECT_EQ(Shape.Collapsed, 2u);

  auto Seg = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Seg.ok()) << Seg.Error;
  auto Hit = Seg.Reader->lookupSerialized(Renamed);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, 3u + 2u + 2u);
  EXPECT_EQ(Hit->CanonicalBytes, Shadowed);
}

TEST(CompactionBytes, MalformedEntryMatchesOnlyEqualBytes) {
  TempSegmentDir D("segment_test.bytes_malformed.tmp");
  ExprContext Ctx;
  Rng R(88);
  const std::string Malformed = handBlob({"x"}, {TagLam, 0, TagVar, 1});
  const std::string Good = serializeExpr(Ctx, parseT(Ctx, "(lam (a) a)"));
  const Hash128 H(7, 7); // one duplicate-hash run holds them all
  AlphaHashIndex<Hash128> Filler({8, HashSchema::DefaultSeed});
  Filler.insertBatch(corpus(Ctx, R, 60), 1);
  std::vector<ClassSummary<Hash128>> Oldest = Filler.snapshot();
  Oldest.push_back({H, 2, Malformed});
  addHandSegment<Hash128>(D.Dir, std::move(Oldest), /*Shards=*/8);
  addHandSegment<Hash128>(D.Dir, {{H, 20, Malformed}, {H, 40, Good}},
                          /*Shards=*/8);
  addHandSegment<Hash128>(D.Dir, {{H, 5, Good}, {H, 1, Malformed}},
                          /*Shards=*/2);
  MergeShape Shape;
  expectCompactionMatchesOldMerge<Hash128>(D.Dir, Shape);
  EXPECT_EQ(Shape.Collapsed, 3u);
  EXPECT_EQ(Shape.CollidingClasses, 2u);
}

TEST(CompactionBytes, SegmentsAppendedWithDifferentShardCounts) {
  TempSegmentDir D("segment_test.bytes_shards.tmp");
  ExprContext Ctx;
  Rng R(404);
  std::vector<std::string> Base = corpus(Ctx, R, 200);
  AlphaHashIndex<Hash128> BaseIdx({4, HashSchema::DefaultSeed});
  BaseIdx.insertBatch(Base, 1);
  ASSERT_TRUE(createSegmentDir(D.Dir, BaseIdx).Ok);
  for (unsigned Shards : {2u, 1u, 16u}) {
    std::vector<std::string> Delta = renamedCopies(Ctx, R, Base, 5);
    for (std::string &B : corpus(Ctx, R, 40))
      Delta.push_back(std::move(B));
    SegmentAppendOptions Opts;
    Opts.Shards = Shards;
    ASSERT_TRUE(appendSegment<Hash128>(D.Dir, Delta, Opts).Ok);
  }
  MergeShape Shape;
  expectCompactionMatchesOldMerge<Hash128>(D.Dir, Shape);
  EXPECT_GT(Shape.Collapsed, 100u);
  auto Seg = SegmentedIndex<Hash128>::open(D.Dir);
  ASSERT_TRUE(Seg.ok()) << Seg.Error;
  EXPECT_EQ(Seg.Reader->numShards(), 16u); // the newest segment's striping
}
