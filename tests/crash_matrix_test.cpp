//===- tests/crash_matrix_test.cpp - Exhaustive crash-recovery matrix -------===//
///
/// \file
/// The durability contract of every index write path, proved by
/// exhaustion. For each operation (single-file save, segment append,
/// compaction, gc) the driver first runs it unfaulted through a
/// counting \ref FaultIoEnv to learn its environment-call count N, then
/// replays it N times per fault shape, crashing at every k in 1..N:
///
///  - **errno-at-k** (ENOSPC): the call fails once, the filesystem
///    stays alive -- the caller's error path runs for real. The
///    operation must either report failure (with the errno text in the
///    message) or succeed; either way the *committed* state -- the
///    manifest plus every segment it references, or the single file
///    behind its name -- must be byte-identical to the pre-state or the
///    post-state. Never a third state.
///  - **power-cut-at-k**: from call k onward everything fails and bytes
///    never fsynced are discarded, exactly what a real crash leaves.
///    Same old-or-new assertion, and `fsck` must report the directory
///    serviceable; `--repair` must reduce it to healthy without
///    touching the committed bytes.
///  - **EINTR-at-k**: the call is interrupted once and works on retry.
///    Not a crash at all -- the operation must simply succeed, which
///    proves every read/write loop in the stack actually retries.
///
/// The query battery (every class's hash/count/canonical bytes, via the
/// same merge the compactor uses) is checked against the pre/post
/// fingerprints too, so "old or new state" holds semantically, not just
/// byte-wise.
///
//===----------------------------------------------------------------------===//

#include "index/Fsck.h"
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
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace hma;

namespace {

//===----------------------------------------------------------------------===//
// Directory snapshot / restore
//===----------------------------------------------------------------------===//

/// A self-cleaning scratch directory for one matrix run.
struct MatrixDir {
  std::string Dir;

  explicit MatrixDir(std::string Name) : Dir(std::move(Name)) {
    destroy();
    ::mkdir(Dir.c_str(), 0777);
  }
  ~MatrixDir() { destroy(); }

  void destroy() {
    DIR *D = ::opendir(Dir.c_str());
    if (D) {
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

using DirImage = std::map<std::string, std::string>;

DirImage captureDir(const std::string &Dir) {
  DirImage Img;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Img;
  while (struct dirent *E = ::readdir(D)) {
    const std::string N = E->d_name;
    if (N == "." || N == "..")
      continue;
    std::string Bytes;
    if (readFileBytes(Dir + "/" + N, Bytes, nullptr))
      Img[N] = std::move(Bytes);
  }
  ::closedir(D);
  return Img;
}

/// Reset \p Dir to exactly \p Img (plain writes; restore speed matters
/// here, crash-safety of the restore itself does not).
void restoreDir(const std::string &Dir, const DirImage &Img) {
  DIR *D = ::opendir(Dir.c_str());
  if (D) {
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
  for (const auto &[N, Bytes] : Img) {
    std::ofstream Out(Dir + "/" + N, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    ASSERT_TRUE(Out.good()) << "restore failed for " << N;
  }
}

//===----------------------------------------------------------------------===//
// State fingerprints
//===----------------------------------------------------------------------===//

/// The committed bytes behind \p Path: for a segmented directory the
/// manifest plus every segment it references (debris excluded -- the
/// manifest is the single source of truth); for a single-file index the
/// file itself. Two equal strings mean a reader cannot tell the states
/// apart, byte for byte.
std::string committedState(const std::string &Path) {
  std::string Out;
  if (isSegmentDir(Path)) {
    std::string MBytes;
    if (!readFileBytes(manifestPathFor(Path), MBytes, nullptr))
      return "<unreadable manifest>";
    SegmentManifest M;
    if (!SegmentManifest::decode(MBytes, M))
      return "<undecodable manifest>";
    Out += "MANIFEST=" + MBytes;
    for (const SegmentEntry &E : M.Segments) {
      std::string SBytes;
      if (!readFileBytes(Path + "/" + E.Name, SBytes, nullptr))
        return "<unreadable segment " + E.Name + ">";
      Out += "|" + E.Name + "=" + SBytes;
    }
    return Out;
  }
  if (!readFileBytes(Path, Out, nullptr))
    return "<unreadable file>";
  return Out;
}

template <typename ClassVec> std::string fingerprintClasses(const ClassVec &Classes) {
  std::string S;
  for (const auto &C : Classes) {
    S += C.Hash.toHex();
    S += ':';
    S += std::to_string(C.Count);
    S += ':';
    S += C.CanonicalBytes;
    S += '\n';
  }
  return S;
}

/// Query battery: every class's (hash, count, canonical bytes) in
/// canonical order, loaded through the normal read paths.
std::string batteryString(const std::string &Path) {
  if (isSegmentDir(Path)) {
    typename SegmentSet<Hash128>::OpenResult Set =
        SegmentSet<Hash128>::open(Path);
    if (!Set.ok())
      return "<unopenable: " + Set.Error + ">";
    std::vector<std::vector<ClassSummary<Hash128>>> Streams;
    const auto &Segments = Set.Set->segments();
    for (size_t I = Segments.size(); I != 0; --I)
      Streams.push_back(Segments[I - 1]->snapshot());
    return fingerprintClasses(
        detail::mergeClassSummaries<Hash128>(Streams));
  }
  auto R = MappedIndex<Hash128>::open(Path);
  std::string Error = R.Error;
  if (!R.ok() || !R.Reader->verify(&Error))
    return "<unreadable: " + Error + ">";
  return fingerprintClasses(R.Reader->snapshot());
}

//===----------------------------------------------------------------------===//
// The matrix driver
//===----------------------------------------------------------------------===//

using MatrixOp = std::function<bool(IoEnv &, std::string &)>;

/// Count the op's environment calls, then crash it at every call with
/// every fault shape and assert the old-or-new invariant plus fsck
/// recovery each time. \p WorkDir is snapshot/restored around every
/// replay; \p IndexPath (inside it, or equal to it) is what readers
/// open.
void runMatrix(const std::string &WorkDir, const std::string &IndexPath,
               const MatrixOp &Op, const char *Name) {
  const DirImage Pre = captureDir(WorkDir);
  const std::string PreState = committedState(IndexPath);
  const std::string PreBattery = batteryString(IndexPath);

  FaultIoEnv Counter; // FailAtOp = 0: counts, never fires.
  std::string Error;
  ASSERT_TRUE(Op(Counter, Error)) << Name << " unfaulted run: " << Error;
  const uint64_t N = Counter.opCount();
  ASSERT_GT(N, 0u) << Name << " made no environment calls";

  const DirImage Post = captureDir(WorkDir);
  const std::string PostState = committedState(IndexPath);
  const std::string PostBattery = batteryString(IndexPath);

  int ErrnoTextSeen = 0;
  for (uint64_t K = 1; K <= N; ++K) {
    for (int Mode = 0; Mode != 2; ++Mode) {
      restoreDir(WorkDir, Pre);
      FaultPlan P;
      P.FailAtOp = K;
      if (Mode == 0)
        P.Errno = ENOSPC;
      else
        P.PowerCut = true;
      FaultIoEnv Env(P);
      std::string OpError;
      const bool Ok = Op(Env, OpError);
      const std::string Tag = std::string(Name) + " k=" + std::to_string(K) +
                              (Mode == 0 ? " [enospc]" : " [power-cut]");

      // Old state or new state, byte-identically -- never a third.
      const std::string State = committedState(IndexPath);
      EXPECT_TRUE(State == PreState || State == PostState)
          << Tag << ": torn committed state";
      const std::string Battery = batteryString(IndexPath);
      EXPECT_TRUE(Battery == PreBattery || Battery == PostBattery)
          << Tag << ": query battery answers a third state";
      if (Ok && !Env.dead()) {
        EXPECT_EQ(State, PostState)
            << Tag << ": reported success without the new state";
      }
      if (!Ok) {
        EXPECT_FALSE(OpError.empty()) << Tag << ": failure without an error";
        if (Mode == 0 &&
            OpError.find(std::strerror(ENOSPC)) != std::string::npos)
          ++ErrnoTextSeen;
      }

      // Recovery: fsck must call the survivor state serviceable, and
      // --repair must take it to healthy without touching it.
      FsckReport Before = fsckIndex(IndexPath);
      EXPECT_TRUE(Before.Serviceable)
          << Tag << ": fsck calls the state damaged\n"
          << Before.render(IndexPath);
      FsckOptions Repair;
      Repair.Repair = true;
      (void)fsckIndex(IndexPath, Repair);
      FsckReport After = fsckIndex(IndexPath);
      EXPECT_TRUE(After.Healthy)
          << Tag << ": repair left issues\n" << After.render(IndexPath);
      EXPECT_EQ(committedState(IndexPath), State)
          << Tag << ": repair changed the committed state";
    }
  }
  // At least one k must land the injected errno in a surfaced message
  // (the exact call depends on the op's shape, so this is aggregate).
  EXPECT_GT(ErrnoTextSeen, 0)
      << Name << ": no failure message carried the ENOSPC text";

  // EINTR pass: an interrupted-and-retried call is not a failure.
  for (uint64_t K = 1; K <= N; ++K) {
    restoreDir(WorkDir, Pre);
    FaultPlan P;
    P.FailAtOp = K;
    P.EintrOnce = true;
    FaultIoEnv Env(P);
    std::string OpError;
    EXPECT_TRUE(Op(Env, OpError))
        << Name << " EINTR at k=" << K << ": " << OpError;
    EXPECT_EQ(committedState(IndexPath), PostState)
        << Name << " EINTR at k=" << K << " did not reach the new state";
  }
}

std::vector<std::string> makeBlobs(ExprContext &Ctx, Rng &R, int N,
                                   uint32_t SizeBase) {
  std::vector<std::string> Blobs;
  for (int I = 0; I != N; ++I)
    Blobs.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, SizeBase + I % 7)));
  return Blobs;
}

} // namespace

//===----------------------------------------------------------------------===//
// The four write paths
//===----------------------------------------------------------------------===//

TEST(CrashMatrix, SaveIndexFileOverExisting) {
  MatrixDir WD("cm_save.dir");
  ExprContext Ctx;
  Rng R(0x5eed01);
  const std::vector<std::string> All = makeBlobs(Ctx, R, 14, 12);

  typename AlphaHashIndex<Hash128>::Options Opts;
  Opts.Shards = 8;
  AlphaHashIndex<Hash128> Old(Opts);
  Old.insertBatch({All.begin(), All.begin() + 7}, 1);
  const std::string Path = WD.Dir + "/index.hmai";
  ASSERT_TRUE(saveIndexFile(Old, Path));

  AlphaHashIndex<Hash128> New(Opts);
  New.insertBatch(All, 1);
  runMatrix(
      WD.Dir, Path,
      [&](IoEnv &Env, std::string &Error) {
        return saveIndexFile(New, Path, &Error, Env);
      },
      "saveIndexFile");
}

TEST(CrashMatrix, AppendSegment) {
  MatrixDir WD("cm_append.segdir");
  ExprContext Ctx;
  Rng R(0x5eed02);
  const std::vector<std::string> Base = makeBlobs(Ctx, R, 10, 12);
  const std::vector<std::string> Delta = makeBlobs(Ctx, R, 8, 14);

  typename AlphaHashIndex<Hash128>::Options Opts;
  Opts.Shards = 8;
  AlphaHashIndex<Hash128> BaseIdx(Opts);
  BaseIdx.insertBatch(Base, 1);
  SegmentAppendOptions Create;
  Create.Shards = 8;
  ASSERT_TRUE(createSegmentDir(WD.Dir, BaseIdx, Create).Ok);

  runMatrix(
      WD.Dir, WD.Dir,
      [&](IoEnv &Env, std::string &Error) {
        SegmentAppendOptions O;
        O.Shards = 8;
        O.Env = &Env;
        SegmentAppendResult A = appendSegment<Hash128>(WD.Dir, Delta, O);
        Error = A.Error;
        return A.Ok;
      },
      "appendSegment");
}

TEST(CrashMatrix, CompactSegments) {
  MatrixDir WD("cm_compact.segdir");
  ExprContext Ctx;
  Rng R(0x5eed03);
  const std::vector<std::string> Base = makeBlobs(Ctx, R, 10, 12);
  const std::vector<std::string> Delta1 = makeBlobs(Ctx, R, 6, 14);
  const std::vector<std::string> Delta2 = makeBlobs(Ctx, R, 6, 16);

  typename AlphaHashIndex<Hash128>::Options Opts;
  Opts.Shards = 8;
  AlphaHashIndex<Hash128> BaseIdx(Opts);
  BaseIdx.insertBatch(Base, 1);
  SegmentAppendOptions SOpts;
  SOpts.Shards = 8;
  ASSERT_TRUE(createSegmentDir(WD.Dir, BaseIdx, SOpts).Ok);
  ASSERT_TRUE(appendSegment<Hash128>(WD.Dir, Delta1, SOpts).Ok);
  ASSERT_TRUE(appendSegment<Hash128>(WD.Dir, Delta2, SOpts).Ok);

  runMatrix(
      WD.Dir, WD.Dir,
      [&](IoEnv &Env, std::string &Error) {
        SegmentCompactResult C = compactSegments<Hash128>(WD.Dir, &Env);
        Error = C.Error;
        return C.Ok;
      },
      "compactSegments");
}

TEST(CrashMatrix, GcSegmentDir) {
  MatrixDir WD("cm_gc.segdir");
  ExprContext Ctx;
  Rng R(0x5eed04);
  const std::vector<std::string> Base = makeBlobs(Ctx, R, 10, 12);

  typename AlphaHashIndex<Hash128>::Options Opts;
  Opts.Shards = 8;
  AlphaHashIndex<Hash128> BaseIdx(Opts);
  BaseIdx.insertBatch(Base, 1);
  SegmentAppendOptions SOpts;
  SOpts.Shards = 8;
  ASSERT_TRUE(createSegmentDir(WD.Dir, BaseIdx, SOpts).Ok);

  // Debris for gc to chew on: an unreferenced segment (a copy of the
  // live one under an unlisted name) and a stale tmp.
  std::string SegBytes;
  ASSERT_TRUE(
      readFileBytes(WD.Dir + "/" + segmentFileName(1), SegBytes, nullptr));
  ASSERT_TRUE(writeFileReplacing(WD.Dir + "/" + segmentFileName(57), SegBytes,
                                 nullptr));
  ASSERT_TRUE(writeFileReplacing(WD.Dir + "/stale.tmp", "debris", nullptr));

  runMatrix(
      WD.Dir, WD.Dir,
      [&](IoEnv &Env, std::string &Error) {
        GcOptions G;
        G.MinAgeSeconds = 0; // offline: no writer can be in flight
        G.Env = &Env;
        Error.clear();
        (void)gcSegmentDir(WD.Dir, &Error, G);
        return Error.empty();
      },
      "gcSegmentDir");
}

//===----------------------------------------------------------------------===//
// Satellite regression: the partial tmp never survives a failed write
//===----------------------------------------------------------------------===//

TEST(CrashMatrix, FailedWriteUnlinksPartialTmpAndNamesErrno) {
  MatrixDir WD("cm_tmpunlink.dir");
  const std::string Path = WD.Dir + "/x.hmai";
  const std::string Payload(1 << 18, 'x');
  // writeFileReplacing's call sequence: 1 unlink(stale tmp), 2 open,
  // 3 write, 4 fsync, 5 close, 6 rename. Fail each durable step.
  for (uint64_t K : {uint64_t(2), uint64_t(3), uint64_t(4), uint64_t(5),
                     uint64_t(6)}) {
    FaultPlan P;
    P.FailAtOp = K;
    P.Errno = ENOSPC;
    FaultIoEnv Env(P);
    std::string Error;
    EXPECT_FALSE(writeFileReplacing(Path, Payload, &Error, Env))
        << "k=" << K;
    EXPECT_NE(Error.find(std::strerror(ENOSPC)), std::string::npos)
        << "k=" << K << ": error lacks the errno text: " << Error;
    std::string Dummy;
    EXPECT_FALSE(readFileBytes(Path + ".tmp", Dummy, nullptr))
        << "k=" << K << ": partial tmp survived the failure";
    EXPECT_FALSE(readFileBytes(Path, Dummy, nullptr))
        << "k=" << K << ": target appeared despite the failure";
  }
}

