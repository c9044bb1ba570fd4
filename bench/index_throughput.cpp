//===- bench/index_throughput.cpp - Segment and obs-overhead gates -------===//
///
/// \file
/// The two CI gates that read an index bench row:
///
///   (default)          the segmented append against a single-file
///                      rewrite of the same 1% delta, and the
///                      `CSV,segment_update` row CI's segment gate reads
///                      (>= 10x, diff_ok=1)
///   --lookup-only      one 1-thread ingest per family and its
///                      `CSV,lookup_throughput` row: the fast mode CI's
///                      obs-overhead gate interleaves across the
///                      instrumented and HMA_OBS_OFF builds (>= 0.95)
///
/// Ingest and query rates, open times and per-layer costs come from
/// perfbench (`perfbench/run.py`).
///
/// Output: a human line per measurement plus machine-readable rows
///   CSV,env,<hardware_concurrency>,<single_core>,<obs_enabled>
///   CSV,lookup_throughput,<family>,<queries>,<sec>,<queries_per_sec>,<obs_enabled>
///   CSV,segment_update,<classes>,<delta>,<append_sec>,<rewrite_sec>,<speedup>,<fresh>,<compact_sec>,<diff_ok>
///
/// `CSV,env` records the machine and whether the obs layer is compiled
/// in. `CSV,lookup_throughput` is a best-of-reps steady-state read-path
/// measurement: CI's overhead smoke diffs its queries_per_sec between a
/// default build and an `-DHMA_OBS_OFF=ON` build and requires the
/// instrumented run within 5%.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ast/Serialize.h"
#include "gen/RandomExpr.h"
#include "index/AlphaHashIndex.h"
#include "index/IndexIO.h"
#include "index/MappedIndex.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentSet.h"
#include "obs/Metrics.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace hma;
using namespace hma::bench;

namespace {

/// Best-of-reps steady-state lookupBatch throughput over \p Index, as
/// the `CSV,lookup_throughput` row. The number CI's obs-overhead gate
/// compares across builds, so it uses timeMin (see BenchUtil.h).
void measureLookup(const char *Family, IndexReader<Hash128> &Index,
                   const std::vector<std::string> &Corpus) {
  size_t Hits = 0;
  double LookupSec = timeMin([&] {
    Hits = 0;
    for (const auto &R : Index.lookupBatch(Corpus, 1))
      Hits += R.has_value();
  });
  double LookupRate =
      LookupSec > 0 ? static_cast<double>(Corpus.size()) / LookupSec : 0.0;
  std::printf("%8s steady lookup %s for %zu queries (%.0f queries/sec, "
              "obs %s)\n",
              "", fmtSeconds(LookupSec).c_str(), Corpus.size(), LookupRate,
              obs::Enabled ? "on" : "off");
  if (Hits != Corpus.size())
    std::printf("ERROR: steady lookup hit %zu/%zu queries\n", Hits,
                Corpus.size());
  std::printf("CSV,lookup_throughput,%s,%zu,%.6f,%.0f,%d\n", Family,
              Corpus.size(), LookupSec, LookupRate, obs::Enabled ? 1 : 0);
}

/// A corpus of \p Count serialised expressions, one third of which are
/// alpha-renamed duplicates (an interning service that never sees a
/// duplicate is not doing its job).
std::vector<std::string> makeCorpus(const char *Family, size_t Count,
                                    uint32_t Size, uint64_t Seed) {
  std::vector<std::string> Blobs;
  Blobs.reserve(Count);
  Rng R(Seed);
  ExprContext Ctx;
  const Expr *Prev = nullptr;
  for (size_t I = 0; I != Count; ++I) {
    if (I % 3 == 2 && Prev) {
      Blobs.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, Prev)));
      continue;
    }
    const Expr *E = Family == std::string("unbalanced")
                        ? genUnbalanced(Ctx, R, Size)
                        : genBalanced(Ctx, R, Size);
    Prev = E;
    Blobs.push_back(serializeExpr(Ctx, E));
  }
  return Blobs;
}

/// `--lookup-only`: one 1-thread ingest then the lookup_throughput row,
/// nothing else. Fast enough (~5 s/family) that CI's obs-overhead gate
/// can interleave several runs of the instrumented and the HMA_OBS_OFF
/// binary and min out machine drift between them.
void runFamilyLookupOnly(const char *Family, size_t Count, uint32_t Size) {
  std::vector<std::string> Corpus = makeCorpus(Family, Count, Size, 2024);
  AlphaHashIndex<> Index;
  Index.insertBatch(Corpus, 1);
  measureLookup(Family, Index, Corpus);
}

//===----------------------------------------------------------------------===//
// Segmented append vs full rewrite: the O(delta) update claim
//===----------------------------------------------------------------------===//

/// Element-wise snapshot equality: same classes, same counts, same
/// canonical spellings -- the "answers byte-identical" check.
bool snapshotsEqual(const std::vector<ClassSummary<Hash128>> &A,
                    const std::vector<ClassSummary<Hash128>> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Hash != B[I].Hash || A[I].Count != B[I].Count ||
        A[I].CanonicalBytes != B[I].CanonicalBytes)
      return false;
  return true;
}

/// The tentpole's measurement: a 1% delta applied to a >= 100k-class
/// index, as a segmented append (stage delta + reconcile + manifest
/// swap; O(delta)) vs rewriting a single HMAI file through library
/// calls (open + verify + restore + ingest + save; O(index)). Both
/// paths start from the *same* base image and ingest the *same* delta
/// single-threaded, so their final class tables must be byte-identical
/// -- checked against the rewritten file both before and after
/// compacting the directory, and reported as the CSV row's diff_ok
/// field:
///
///   CSV,segment_update,<classes>,<delta>,<append_sec>,<rewrite_sec>,
///       <speedup>,<fresh>,<compact_sec>,<diff_ok>
void runSegmentUpdate() {
  const size_t BaseCount = 110000; // >= 100k classes (acceptance floor)
  const size_t DeltaCount = BaseCount / 100;
  std::printf("\n-- segmented append vs full rewrite (1%% delta) --\n");

  // Base corpus: ~all-unique small expressions. Delta: 3/4 fresh, 1/4
  // exact duplicates of base entries so the append's reconciliation
  // probe and cross-segment count summing both do real work.
  std::vector<std::string> Base, Delta;
  Base.reserve(BaseCount);
  Delta.reserve(DeltaCount);
  {
    ExprContext Ctx;
    Rng R(4411);
    for (size_t I = 0; I != BaseCount; ++I)
      Base.push_back(serializeExpr(Ctx, genBalanced(Ctx, R, 12 + I % 13)));
    for (size_t I = 0; I != DeltaCount; ++I) {
      if (I % 4 == 3)
        Delta.push_back(Base[(I * 37) % BaseCount]);
      else
        Delta.push_back(
            serializeExpr(Ctx, genBalanced(Ctx, R, 12 + I % 13)));
    }
  }

  AlphaHashIndex<> BaseIdx;
  BaseIdx.insertBatch(Base, std::thread::hardware_concurrency());
  const std::string Dir = "index_throughput.seg.tmp";
  const std::string File = "index_throughput.seg.hmai.tmp";
  std::string WriteError;
  SegmentAppendResult Created = createSegmentDir(Dir, BaseIdx);
  if (!Created.Ok ||
      saveIndexFile(BaseIdx, File, &WriteError) == 0) {
    std::printf("ERROR: cannot seed segment bench: %s\n",
                (Created.Ok ? WriteError : Created.Error).c_str());
    return;
  }
  const size_t Classes = BaseIdx.numClasses();

  // The append: O(delta) staging, one reconcile probe per delta class,
  // manifest swap. Existing segments are never read in bulk.
  SegmentAppendOptions Opts;
  Opts.Threads = 1;
  SegmentAppendResult AR;
  double AppendSec = timeOnce([&] { AR = appendSegment<Hash128>(Dir, Delta, Opts); });
  if (!AR.Ok) {
    std::printf("ERROR: append failed: %s\n", AR.Error.c_str());
    return;
  }

  // The rewrite of a single HMAI file: open and verify it, restore
  // every class into a live index, ingest the delta, serialise
  // everything.
  double RewriteSec = timeOnce([&] {
    auto M = MappedIndex<Hash128>::open(File);
    if (!M.ok() || !M.Reader->verify())
      return;
    auto Index = AlphaHashIndex<>::restore(
        {M.Reader->numShards(), M.Reader->schema().seed()},
        M.Reader->snapshot(), M.Reader->stats());
    M.Reader.reset();
    Index->insertBatch(Delta, 1);
    saveIndexFile(*Index, File);
  });

  // After the rewrite, File holds base+delta: the single-file reference
  // the segmented answers must match byte-identically.
  auto Ref = MappedIndex<Hash128>::open(File);
  bool DiffOk = Ref.ok() && Ref.Reader->verify();
  std::vector<ClassSummary<Hash128>> RefClasses;
  if (DiffOk) {
    RefClasses = Ref.Reader->snapshot();
    auto Seg = SegmentedIndex<Hash128>::open(Dir);
    DiffOk = Seg.ok() && snapshotsEqual(Seg.Reader->snapshot(), RefClasses);
  }

  double CompactSec = timeOnce([&] {
    SegmentCompactResult C = compactSegments<Hash128>(Dir);
    if (!C.Ok)
      std::printf("ERROR: compact failed: %s\n", C.Error.c_str());
  });
  if (DiffOk) {
    auto Seg = SegmentedIndex<Hash128>::open(Dir);
    DiffOk = Seg.ok() && Seg.Reader->set().numSegments() == 1 &&
             snapshotsEqual(Seg.Reader->snapshot(), RefClasses);
  }

  double Speedup = AppendSec > 0 ? RewriteSec / AppendSec : 0.0;
  std::printf("%8s %zu classes + %zu delta: append %s vs rewrite %s "
              "(%.0fx); %llu fresh; compact %s; answers %s\n",
              "", Classes, Delta.size(), fmtSeconds(AppendSec).c_str(),
              fmtSeconds(RewriteSec).c_str(), Speedup,
              static_cast<unsigned long long>(AR.Fresh),
              fmtSeconds(CompactSec).c_str(),
              DiffOk ? "identical" : "DIFFER");
  if (!DiffOk)
    std::printf("ERROR: segmented answers differ from the single-file "
                "rebuild\n");
  std::printf("CSV,segment_update,%zu,%zu,%.6f,%.6f,%.1f,%llu,%.6f,%d\n",
              Classes, Delta.size(), AppendSec, RewriteSec, Speedup,
              static_cast<unsigned long long>(AR.Fresh), CompactSec,
              DiffOk ? 1 : 0);

  // Cleanup: manifest-listed segments, any orphans, the manifest, the
  // directory, and the single-file twin.
  {
    std::string Bytes;
    SegmentManifest M;
    if (readFileBytes(manifestPathFor(Dir), Bytes, nullptr) &&
        SegmentManifest::decode(Bytes, M))
      for (const SegmentEntry &E : M.Segments)
        std::remove((Dir + "/" + E.Name).c_str());
    gcSegmentDir(Dir);
    std::remove(manifestPathFor(Dir).c_str());
    ::rmdir(Dir.c_str());
    std::remove(File.c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool LookupOnly = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--lookup-only") == 0) {
      LookupOnly = true;
    } else {
      std::fprintf(stderr, "usage: %s [--lookup-only]\n", Argv[0]);
      return 2;
    }
  }
  unsigned HW = std::thread::hardware_concurrency();
  std::printf("index gates (hardware_concurrency=%u, obs %s)\n", HW,
              obs::Enabled ? "on" : "off");
  std::printf("CSV,env,%u,%d,%d\n", HW, HW <= 1 ? 1 : 0,
              obs::Enabled ? 1 : 0);
  if (LookupOnly) {
    size_t Count = fullMode() ? 100000 : 10000;
    runFamilyLookupOnly("balanced", Count, 64);
    runFamilyLookupOnly("unbalanced", Count / 4, 256);
    return 0;
  }
  runSegmentUpdate();
  return 0;
}
