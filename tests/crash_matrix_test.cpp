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
/// The query battery (every class's hash/count/canonical bytes) is
/// checked against the pre/post fingerprints too, so "old or new state"
/// holds semantically, not just byte-wise. It shares no code with the
/// compactor's merge: a segment directory's battery groups each
/// segment's own snapshot by the de Bruijn key of the decoded member,
/// and the pre and post batteries must equal the de Bruijn-keyed
/// \ref ReferenceIndex of the corpus ingested so far. A merge that keeps
/// the wrong representative or leaves alpha-equivalent spellings apart
/// therefore fails here, not only in tests/segment_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "index/Fsck.h"
#include "index/IndexIO.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentManifest.h"
#include "index/SegmentSet.h"
#include "support/IoEnv.h"

#include "ast/DeBruijn.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "gen/RandomExpr.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
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

/// The alpha-class key of stored bytes, from the decoder alone: the de
/// Bruijn rendering of the uniquified decode. Bytes that do not decode
/// key as themselves.
std::string classKey(std::string_view Bytes) {
  ExprContext Ctx;
  DeserializeResult D = deserializeExpr(Ctx, Bytes);
  if (!D.ok())
    return "raw:" + std::string(Bytes);
  return toDeBruijnString(Ctx, uniquifyBinders(Ctx, D.E));
}

/// The union class table of a segment directory without the compactor's
/// merge: every segment's own snapshot, oldest segment first, grouped by
/// \ref classKey (the oldest segment's representative, counts summed). A
/// segment that holds one alpha-class twice breaks the segment invariant
/// and is named in the result.
std::string segmentDirBattery(const std::string &Dir) {
  SegmentSet<Hash128>::OpenResult Set = SegmentSet<Hash128>::open(Dir);
  if (!Set.ok())
    return "<unopenable: " + Set.Error + ">";
  const auto &Segments = Set.Set->segments(); // newest first
  std::map<std::string, ClassSummary<Hash128>> ByKey;
  std::string Broken;
  for (size_t I = Segments.size(); I != 0; --I) {
    std::set<std::string> InSegment;
    for (ClassSummary<Hash128> &C : Segments[I - 1]->snapshot()) {
      std::string Key = classKey(C.CanonicalBytes);
      if (!InSegment.insert(Key).second)
        Broken += "<segment " + Set.Set->manifest().Segments[I - 1].Name +
                  " holds one alpha-class twice>\n";
      auto [It, Fresh] = ByKey.try_emplace(std::move(Key), C);
      if (!Fresh)
        It->second.Count = saturatingAdd(It->second.Count, C.Count);
    }
  }
  std::vector<ClassSummary<Hash128>> Union;
  for (auto &[Key, C] : ByKey)
    Union.push_back(std::move(C));
  std::sort(Union.begin(), Union.end(),
            detail::lessByHashThenBytes<ClassSummary<Hash128>>);
  return fingerprintClasses(Union) + Broken;
}

/// Query battery: every class's (hash, count, canonical bytes) in
/// canonical order, loaded through the normal read paths -- a segment
/// directory through \ref segmentDirBattery.
std::string batteryString(const std::string &Path) {
  if (isSegmentDir(Path))
    return segmentDirBattery(Path);
  auto R = MappedIndex<Hash128>::open(Path);
  std::string Error = R.Error;
  if (!R.ok() || !R.Reader->verify(&Error))
    return "<unreadable: " + Error + ">";
  return fingerprintClasses(R.Reader->snapshot());
}

/// The battery an index of \p Blobs, ingested in order on one thread,
/// must answer: the de Bruijn-keyed reference model's classes.
std::string referenceBattery(const std::vector<std::string> &Blobs) {
  ReferenceIndex<Hash128> Ref;
  for (const std::string &B : Blobs)
    EXPECT_TRUE(Ref.insert(B));
  return fingerprintClasses(Ref.snapshot());
}

//===----------------------------------------------------------------------===//
// The matrix driver
//===----------------------------------------------------------------------===//

using MatrixOp = std::function<bool(IoEnv &, std::string &)>;

/// Count the op's environment calls, then crash it at every call with
/// every fault shape and assert the old-or-new invariant plus fsck
/// recovery each time. \p WorkDir is snapshot/restored around every
/// replay; \p IndexPath (inside it, or equal to it) is what readers
/// open. \p WantPre and \p WantPost are the batteries the old and the
/// new state must answer (\ref referenceBattery), so a wrong new state
/// fails even though every crash lands on it or on the old one.
void runMatrix(const std::string &WorkDir, const std::string &IndexPath,
               const MatrixOp &Op, const char *Name,
               const std::string &WantPre, const std::string &WantPost) {
  const DirImage Pre = captureDir(WorkDir);
  const std::string PreState = committedState(IndexPath);
  const std::string PreBattery = batteryString(IndexPath);
  EXPECT_TRUE(PreBattery == WantPre)
      << Name << ": the old state answers unlike the reference";

  FaultIoEnv Counter; // FailAtOp = 0: counts, never fires.
  std::string Error;
  ASSERT_TRUE(Op(Counter, Error)) << Name << " unfaulted run: " << Error;
  const uint64_t N = Counter.opCount();
  ASSERT_GT(N, 0u) << Name << " made no environment calls";

  const DirImage Post = captureDir(WorkDir);
  const std::string PostState = committedState(IndexPath);
  const std::string PostBattery = batteryString(IndexPath);
  EXPECT_TRUE(PostBattery == WantPost)
      << Name << ": the new state answers unlike the reference";

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

/// Append to \p Blobs an alpha-renamed copy of each of \p Of: a class an
/// older segment already holds, under a different spelling.
void addRenamedCopies(ExprContext &Ctx, Rng &R,
                      const std::vector<std::string> &Of,
                      std::vector<std::string> &Blobs) {
  for (const std::string &B : Of) {
    DeserializeResult D = deserializeExpr(Ctx, B);
    ASSERT_TRUE(D.ok()) << D.Error;
    std::string Renamed = serializeExpr(Ctx, alphaRename(Ctx, R, D.E));
    ASSERT_NE(Renamed, B) << "the rename kept the spelling";
    Blobs.push_back(std::move(Renamed));
  }
}

std::vector<std::string> concat(std::vector<std::string> A,
                                const std::vector<std::string> &B) {
  A.insert(A.end(), B.begin(), B.end());
  return A;
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
        return saveIndexFile(New, Path, &Error, Env) != 0;
      },
      "saveIndexFile", referenceBattery({All.begin(), All.begin() + 7}),
      referenceBattery(All));
}

TEST(CrashMatrix, AppendSegment) {
  MatrixDir WD("cm_append.segdir");
  ExprContext Ctx;
  Rng R(0x5eed02);
  const std::vector<std::string> Base = makeBlobs(Ctx, R, 10, 12);
  std::vector<std::string> Delta = makeBlobs(Ctx, R, 8, 14);
  addRenamedCopies(Ctx, R, {Base.begin(), Base.begin() + 3}, Delta);

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
      "appendSegment", referenceBattery(Base),
      referenceBattery(concat(Base, Delta)));
}

TEST(CrashMatrix, CompactSegments) {
  MatrixDir WD("cm_compact.segdir");
  ExprContext Ctx;
  Rng R(0x5eed03);
  // Each delta repeats older classes under new spellings, so the merge
  // must pick the oldest representative and verify across spellings.
  const std::vector<std::string> Base = makeBlobs(Ctx, R, 10, 12);
  std::vector<std::string> Delta1 = makeBlobs(Ctx, R, 6, 14);
  addRenamedCopies(Ctx, R, {Base.begin(), Base.begin() + 3}, Delta1);
  std::vector<std::string> Delta2 = makeBlobs(Ctx, R, 6, 16);
  addRenamedCopies(Ctx, R, {Base.begin() + 1, Base.begin() + 4}, Delta2);
  addRenamedCopies(Ctx, R, {Delta1.begin(), Delta1.begin() + 2}, Delta2);

  typename AlphaHashIndex<Hash128>::Options Opts;
  Opts.Shards = 8;
  AlphaHashIndex<Hash128> BaseIdx(Opts);
  BaseIdx.insertBatch(Base, 1);
  SegmentAppendOptions SOpts;
  SOpts.Shards = 8;
  ASSERT_TRUE(createSegmentDir(WD.Dir, BaseIdx, SOpts).Ok);
  ASSERT_TRUE(appendSegment<Hash128>(WD.Dir, Delta1, SOpts).Ok);
  ASSERT_TRUE(appendSegment<Hash128>(WD.Dir, Delta2, SOpts).Ok);
  // Compaction changes no answer: before and after, the reference of
  // the whole corpus.
  const std::string All =
      referenceBattery(concat(concat(Base, Delta1), Delta2));

  runMatrix(
      WD.Dir, WD.Dir,
      [&](IoEnv &Env, std::string &Error) {
        SegmentCompactResult C = compactSegments<Hash128>(WD.Dir, &Env);
        Error = C.Error;
        return C.Ok;
      },
      "compactSegments", All, All);
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
  ASSERT_TRUE(writeFileReplacing(WD.Dir + "/" + segmentFileName(58) + ".tmp",
                                 "debris", nullptr));

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
      "gcSegmentDir", referenceBattery(Base), referenceBattery(Base));
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

