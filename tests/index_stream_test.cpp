//===- tests/index_stream_test.cpp - Streamed HMAI writes -----------------===//
///
/// \file
/// Every `HMAI` write streams through the image writer's fixed staging
/// buffer (\ref iio::WriteBufferBytes). These tests use images several
/// times that size, so chunk boundaries cut through records, blobs and
/// the sidecar, and check three things:
///
///  - the writer's chunking: every chunk but the last is exactly one
///    buffer long, the chunks concatenate to \ref saveIndexBytes, and a
///    sink that refuses a chunk stops the writer;
///  - every write path's file is byte-identical to \ref saveIndexBytes
///    of the same class table: a saved file, appends at 1, 4 and 16
///    shards, and a compaction;
///  - an ENOSPC on a middle chunk's write leaves no `.tmp`, reports the
///    errno text, and leaves the old manifest serving.
///
//===----------------------------------------------------------------------===//

#include "index/IndexIO.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentManifest.h"
#include "index/SegmentSet.h"
#include "support/IoEnv.h"

#include "ast/Serialize.h"
#include "gen/RandomExpr.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace hma;

namespace {

constexpr size_t Chunk = iio::WriteBufferBytes;

/// A scratch directory removed (with its files) on both ends.
struct ScratchDir {
  std::string Dir;

  explicit ScratchDir(std::string Name) : Dir(std::move(Name)) {
    clear();
    ::mkdir(Dir.c_str(), 0777);
  }
  ~ScratchDir() { clear(); }

  void clear() {
    if (DIR *D = ::opendir(Dir.c_str())) {
      std::vector<std::string> Names;
      while (struct dirent *E = ::readdir(D)) {
        const std::string N = E->d_name;
        if (N != "." && N != "..")
          Names.push_back(N);
      }
      ::closedir(D);
      for (const std::string &N : Names)
        std::remove((Dir + "/" + N).c_str());
    }
    ::rmdir(Dir.c_str());
  }
};

/// \p N distinct classes whose blobs are mostly long spellings: a binder
/// of 40-440 bytes applied to a free name of 20-720 bytes (which keeps
/// the classes apart), every fourth one a balanced term of 8-40 nodes
/// inside such a binder. About 1 MiB of image per 1700 classes; blob
/// lengths vary so no layout lines up with the buffer, and hashing
/// stays cheap.
std::vector<std::string> bigBlobs(uint64_t Seed, size_t N) {
  ExprContext Ctx;
  Rng R(Seed);
  std::vector<std::string> Blobs;
  for (size_t I = 0; I != N; ++I) {
    const Name Binder =
        Ctx.name("b" + std::string(40 + R.below(401), 'x'));
    const Name Free = Ctx.name("f" + std::to_string(Seed) + "_" +
                               std::to_string(I) +
                               std::string(20 + R.below(701), 'y'));
    const Expr *Body = I % 4 == 0
                           ? genBalanced(Ctx, R, 8 + static_cast<uint32_t>(
                                                         R.below(33)))
                           : Ctx.var(Binder);
    Blobs.push_back(serializeExpr(
        Ctx, Ctx.app(Ctx.lam(Binder, Body), Ctx.var(Free))));
  }
  return Blobs;
}

/// Alpha-renamed copies of the first \p N of \p Of.
std::vector<std::string> renamedCopies(const std::vector<std::string> &Of,
                                       size_t N, uint64_t Seed) {
  ExprContext Ctx;
  Rng R(Seed);
  std::vector<std::string> Out;
  for (size_t I = 0; I != N; ++I) {
    DeserializeResult D = deserializeExpr(Ctx, Of[I]);
    EXPECT_TRUE(D.ok()) << D.Error;
    Out.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, D.E)));
  }
  return Out;
}

std::vector<std::string> concat(std::vector<std::string> A,
                                const std::vector<std::string> &B) {
  A.insert(A.end(), B.begin(), B.end());
  return A;
}

std::string fileBytes(const std::string &Path) {
  std::string Bytes;
  std::string Error;
  EXPECT_TRUE(readFileBytes(Path, Bytes, &Error)) << Error;
  return Bytes;
}

/// The image of \p Index's class table re-saved at \p Shards with
/// \p Stats: what a write path streaming those classes must produce.
std::string expectedImage(const std::vector<ClassSummary<Hash128>> &Classes,
                          unsigned Shards, const IndexStats &Stats) {
  return saveIndexBytes(*AlphaHashIndex<Hash128>::restore(
      {Shards, HashSchema::DefaultSeed}, Classes, Stats));
}

} // namespace

//===----------------------------------------------------------------------===//
// The writer's chunking
//===----------------------------------------------------------------------===//

/// Write \p Blobs' index at several shard counts through a capturing
/// sink: every chunk but the last is one whole buffer, the chunks are
/// \ref saveIndexBytes, and the image opens, verifies and holds exactly
/// the live index's classes -- a check that does not go through the
/// writer, so a word or blob cut wrongly at a chunk boundary fails it.
template <typename H>
void expectChunkedImages(const std::vector<std::string> &Blobs) {
  AlphaHashIndex<H> Live({1, HashSchema::DefaultSeed});
  Live.insertBatch(Blobs, 1);
  ASSERT_EQ(Live.numClasses(), Blobs.size());
  // Every shard count moves the tables, so boundaries fall at other
  // offsets within records, blobs and the sidecar.
  for (unsigned Shards : {1u, 4u, 16u, 64u}) {
    auto Re = AlphaHashIndex<H>::restore({Shards, HashSchema::DefaultSeed},
                                         Live.snapshot(), Live.stats());
    std::vector<size_t> Sizes;
    std::string Got;
    const uint64_t N = writeIndexImage(
        Re->classRefs(), Shards, Re->schema().seed(), Re->stats(),
        [&](std::string_view C) {
          Sizes.push_back(C.size());
          Got.append(C);
          return true;
        });
    ASSERT_GE(Got.size(), 3 * Chunk) << "image too small to span chunks";
    EXPECT_EQ(N, Got.size()) << Shards << " shards";
    EXPECT_TRUE(Got == saveIndexBytes(*Re)) << Shards << " shards";
    ASSERT_EQ(Sizes.size(), (Got.size() + Chunk - 1) / Chunk);
    for (size_t I = 0; I + 1 < Sizes.size(); ++I)
      EXPECT_EQ(Sizes[I], Chunk) << "chunk " << I << " at " << Shards;
    auto Back = restoreVerified<H>(Got);
    ASSERT_NE(Back, nullptr) << Shards << " shards";
    expectClassSummariesEq<H>(Back->snapshot(), Live.snapshot());
  }
}

TEST(StreamedImage, ChunksAreWholeBuffersAndConcatenateToTheImage) {
  // Long blobs: the boundaries fall in the bytes region, and one blob
  // is longer than the buffer, so its copy spans several chunks.
  std::vector<std::string> Long = bigBlobs(0x57e4a1, 6000);
  ExprContext Ctx;
  Long.push_back(
      serializeExpr(Ctx, Ctx.var(Ctx.name(std::string(Chunk * 5 / 2, 'z')))));
  expectChunkedImages<Hash128>(Long);

  // Tens of thousands of one-name classes: the boundaries fall inside
  // the tables and the sidecar, which sits at an odd offset, so words
  // are cut; at b=32 the 28-byte records cut table words too.
  std::vector<std::string> Tiny;
  for (int I = 0; I != 72000; ++I)
    Tiny.push_back(
        serializeExpr(Ctx, Ctx.var(Ctx.name("f" + std::to_string(I)))));
  expectChunkedImages<Hash128>(Tiny);
  expectChunkedImages<Hash32>(Tiny);
}

TEST(StreamedImage, RefusingSinkStopsTheWriter) {
  AlphaHashIndex<Hash128> Live({4, HashSchema::DefaultSeed});
  Live.insertBatch(bigBlobs(0x57e4a2, 6000), 1);
  unsigned Calls = 0;
  const uint64_t N = writeIndexImage(
      Live.classRefs(), Live.numShards(), Live.schema().seed(), Live.stats(),
      [&](std::string_view) { return ++Calls < 2; });
  EXPECT_EQ(N, 0u) << "a refused chunk must fail the write";
  EXPECT_EQ(Calls, 2u) << "the writer kept handing chunks to a dead sink";
}

//===----------------------------------------------------------------------===//
// Every write path streams the same bytes saveIndexBytes returns
//===----------------------------------------------------------------------===//

TEST(StreamedImage, SavedFileEqualsSaveIndexBytes) {
  ScratchDir D("stream_save.dir");
  AlphaHashIndex<Hash128> Live({8, HashSchema::DefaultSeed});
  Live.insertBatch(bigBlobs(0x57e4a3, 6000), 1);
  const std::string Path = D.Dir + "/index.hmai";
  std::string Error;
  const uint64_t N = saveIndexFile(Live, Path, &Error);
  ASSERT_NE(N, 0u) << Error;
  const std::string Want = saveIndexBytes(Live);
  ASSERT_GE(Want.size(), 3 * Chunk);
  EXPECT_EQ(N, Want.size());
  EXPECT_TRUE(fileBytes(Path) == Want) << "streamed file differs";
}

TEST(StreamedImage, AppendedSegmentsEqualSaveIndexBytesAtEveryShardCount) {
  ScratchDir D("stream_append.segdir");
  const std::vector<std::string> Base = bigBlobs(0x57e4a4, 2000);
  AlphaHashIndex<Hash128> BaseIdx({8, HashSchema::DefaultSeed});
  BaseIdx.insertBatch(Base, 1);
  SegmentAppendResult C = createSegmentDir(D.Dir, BaseIdx);
  ASSERT_TRUE(C.Ok) << C.Error;
  EXPECT_TRUE(fileBytes(D.Dir + "/" + C.SegmentName) ==
              saveIndexBytes(BaseIdx));

  uint64_t Seed = 0x57e4a5;
  for (unsigned Shards : {1u, 4u, 16u}) {
    // New classes plus renamed repeats of base classes, whose stats the
    // append reconciles against the union.
    const size_t Repeats = 200;
    Seed += 2;
    const std::vector<std::string> Delta = concat(
        bigBlobs(Seed, 6000), renamedCopies(Base, Repeats, Seed + 1));
    AlphaHashIndex<Hash128> Staged({Shards, HashSchema::DefaultSeed});
    Staged.insertBatch(Delta, 1);
    IndexStats Stats = Staged.stats();
    Stats.NewClasses -= Repeats;
    Stats.Duplicates += Repeats;
    const std::string Want = expectedImage(Staged.snapshot(), Shards, Stats);
    ASSERT_GE(Want.size(), 3 * Chunk);

    SegmentAppendOptions O;
    O.Shards = Shards;
    SegmentAppendResult A = appendSegment<Hash128>(D.Dir, Delta, O);
    ASSERT_TRUE(A.Ok) << A.Error;
    EXPECT_EQ(A.Fresh, Staged.numClasses() - Repeats);
    EXPECT_TRUE(fileBytes(D.Dir + "/" + A.SegmentName) == Want)
        << "append at " << Shards << " shards";
    auto Set = SegmentSet<Hash128>::open(D.Dir);
    ASSERT_TRUE(Set.ok()) << Set.Error;
    EXPECT_EQ(Set.Set->manifest().Segments.front().FileBytes, Want.size());
  }
}

TEST(StreamedImage, CompactedSegmentEqualsSaveIndexBytes) {
  ScratchDir D("stream_compact.segdir");
  const std::vector<std::string> Base = bigBlobs(0x57e4a6, 3000);
  AlphaHashIndex<Hash128> BaseIdx({8, HashSchema::DefaultSeed});
  BaseIdx.insertBatch(Base, 1);
  ASSERT_TRUE(createSegmentDir(D.Dir, BaseIdx).Ok);
  SegmentAppendOptions O;
  O.Shards = 16;
  ASSERT_TRUE(appendSegment<Hash128>(
                  D.Dir, concat(bigBlobs(0x57e4a7, 3000),
                                renamedCopies(Base, 300, 0x57e4a8)),
                  O)
                  .Ok);

  std::string Want;
  {
    auto Union = SegmentedIndex<Hash128>::open(D.Dir);
    ASSERT_TRUE(Union.ok()) << Union.Error;
    Want = expectedImage(Union.Reader->snapshot(), Union.Reader->numShards(),
                         Union.Reader->stats());
  }
  ASSERT_GE(Want.size(), 3 * Chunk);
  SegmentCompactResult C = compactSegments<Hash128>(D.Dir);
  ASSERT_TRUE(C.Ok) << C.Error;
  auto Set = SegmentSet<Hash128>::open(D.Dir);
  ASSERT_TRUE(Set.ok()) << Set.Error;
  ASSERT_EQ(Set.Set->numSegments(), 1u);
  const SegmentEntry &E = Set.Set->manifest().Segments.front();
  EXPECT_EQ(E.FileBytes, Want.size());
  EXPECT_TRUE(fileBytes(D.Dir + "/" + E.Name) == Want)
      << "compacted segment differs";
}

//===----------------------------------------------------------------------===//
// A failed middle chunk
//===----------------------------------------------------------------------===//

TEST(StreamedImage, EnospcOnAMiddleChunkKeepsTheOldManifestServing) {
  ScratchDir D("stream_enospc.segdir");
  AlphaHashIndex<Hash128> BaseIdx({8, HashSchema::DefaultSeed});
  BaseIdx.insertBatch(bigBlobs(0x57e4a9, 3000), 1);
  ASSERT_TRUE(createSegmentDir(D.Dir, BaseIdx).Ok);
  ASSERT_TRUE(
      appendSegment<Hash128>(D.Dir, bigBlobs(0x57e4aa, 3000)).Ok);

  const std::string OldManifest = fileBytes(manifestPathFor(D.Dir));
  std::vector<ClassSummary<Hash128>> OldClasses;
  uint64_t ImageBytes = 0;
  {
    auto Union = SegmentedIndex<Hash128>::open(D.Dir);
    ASSERT_TRUE(Union.ok()) << Union.Error;
    OldClasses = Union.Reader->snapshot();
    for (const SegmentEntry &E : Union.Reader->set().manifest().Segments)
      ImageBytes += E.FileBytes;
  }
  // The compacted image is about the two segments' size (no repeats).
  const uint64_t Chunks = (ImageBytes + Chunk - 1) / Chunk;
  ASSERT_GE(Chunks, 3u);

  // compactSegments' environment calls: 1 unlink of a stale tmp, 2 open,
  // then one write per chunk. Fail a write in the middle.
  FaultPlan P;
  P.FailAtOp = 2 + 1 + Chunks / 2;
  P.Errno = ENOSPC;
  FaultIoEnv Env(P);
  SegmentCompactResult C = compactSegments<Hash128>(D.Dir, &Env);
  ASSERT_TRUE(Env.tripped());
  EXPECT_FALSE(C.Ok);
  EXPECT_NE(C.Error.find(std::strerror(ENOSPC)), std::string::npos)
      << "error lacks the errno text: " << C.Error;
  EXPECT_TRUE(listTmpFiles(D.Dir).empty()) << "the partial tmp survived";
  EXPECT_TRUE(fileBytes(manifestPathFor(D.Dir)) == OldManifest);
  SegmentManifest M;
  ASSERT_TRUE(SegmentManifest::decode(OldManifest, M));
  EXPECT_TRUE(listUnreferencedSegments(D.Dir, M).empty())
      << "a failed compaction left a segment file";

  OpenedIndex<Hash128> Served = openIndex<Hash128>(D.Dir);
  ASSERT_TRUE(Served.ok()) << Served.Error;
  expectClassSummariesEq<Hash128>(Served.Reader->snapshot(), OldClasses);
}
