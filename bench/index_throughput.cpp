//===- bench/index_throughput.cpp - Index ingest throughput ------------------===//
///
/// \file
/// Exprs/sec of \ref AlphaHashIndex batch ingest, single- vs
/// multi-threaded, on generated workloads.
///
/// The per-expression work (deserialise, uniquify, alpha-hash) is
/// embarrassingly parallel; only the per-shard critical sections
/// (hash-table probe + possible canonicalisation) serialise. On a
/// multi-core machine the 8-thread row should therefore sit >= 2x above
/// the 1-thread row; on a single hardware thread the ratio degrades to
/// ~1x (the harness prints the machine's concurrency so readers can judge
/// the speedup column).
///
/// Each row also reports the worker hashers' pool-allocation counters:
/// `alloc/expr` is map nodes carved from arenas per ingested expression
/// (warm-up included), `steady/expr` the same metric counting only
/// allocations after each worker's first chunk -- the zero-allocation
/// claim of the scratch-reuse pipeline is that the latter is ~0.
///
/// After the thread sweep, each family measures the persistence path:
/// the single-thread index is saved to `HMAI` bytes, written to a real
/// file and reopened the way every file open works -- `MappedIndex`
/// (mmap, O(shards): open time independent of index size) plus the
/// O(classes) `verify` -- and the reopen (open + verify) time is compared
/// against the rebuild (1-thread ingest) time. The whole corpus is then
/// batch-queried through the mapped reader. The memory-diet column
/// `retained/class` is the canonical-blob bytes each class keeps
/// resident (the byte-backed ShardStore retains nothing else; before the
/// refactor every class additionally pinned a ~2-8 KiB decoded arena in
/// its shard's context). Open, reopen and query times land in the
/// `CSV,index_reopen` row.
///
///   HMA_BENCH_FULL=1   10x corpus size
///   --lookup-only      skip everything except one 1-thread ingest and
///                      the `CSV,lookup_throughput` row per family (the
///                      fast mode CI's obs-overhead gate interleaves
///                      across the instrumented and HMA_OBS_OFF builds)
///   --segment          run ONLY the segmented-append-vs-rewrite
///                      measurement and the `CSV,segment_update` row
///                      (CI's segment gate)
///
/// Output: a human table plus machine-readable `CSV,...` rows
///   CSV,env,<hardware_concurrency>,<single_core>,<obs_enabled>
///   CSV,index_throughput,<family>,<threads>,<exprs>,<sec>,<exprs_per_sec>,<alloc_per_expr>,<steady_alloc_per_expr>
///   CSV,index_reopen,<family>,<classes>,<file_bytes>,<reopen_sec>,<rebuild_sec>,<retained_bytes_per_class>,<mmap_open_sec>,<mmap_batch_sec>
///   CSV,lookup_throughput,<family>,<queries>,<sec>,<queries_per_sec>,<obs_enabled>
///   CSV,segment_update,<classes>,<delta>,<append_sec>,<rewrite_sec>,<speedup>,<fresh>,<compact_sec>,<diff_ok>
///   CSV,obs_hist,<name>,<count>,<p50_ns>,<p90_ns>,<p99_ns>,<max_ns>
///
/// `CSV,env` records the machine (a single hardware thread makes the
/// speedup column meaningless) and whether the obs layer is compiled in.
/// `CSV,lookup_throughput` is a median-of-reps steady-state read-path
/// measurement: CI's overhead smoke diffs its queries_per_sec between a
/// default build and an `-DHMA_OBS_OFF=ON` build and requires the
/// instrumented run within 5%. `CSV,obs_hist` dumps every non-empty obs
/// histogram the run populated (absent under HMA_OBS_OFF).
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
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

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

void runFamily(const char *Family, size_t Count, uint32_t Size) {
  std::vector<std::string> Corpus = makeCorpus(Family, Count, Size, 2024);

  std::printf("\n-- %s corpus: %zu expressions of ~%u nodes --\n", Family,
              Corpus.size(), Size);
  std::printf("%8s %12s %14s %10s %12s %12s\n", "threads", "time",
              "exprs/sec", "speedup", "alloc/expr", "steady/expr");

  double Base = 0;
  std::string SavedIndex; // HMAI bytes of the 1-thread index
  size_t Classes = 0;
  size_t RetainedBytes = 0;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    AlphaHashIndex<> Index;
    AlphaHashIndex<>::BatchResult Batch;
    double Sec = timeOnce([&] { Batch = Index.insertBatch(Corpus, Threads); });
    double Rate = static_cast<double>(Corpus.size()) / Sec;
    auto [PerExpr, SteadyPerExpr] = allocsPerExpr(Batch);
    if (Threads == 1)
      Base = Sec;
    std::printf("%8u %12s %14.0f %9.2fx %12.3f %12.3f\n", Threads,
                fmtSeconds(Sec).c_str(), Rate, Base / Sec, PerExpr,
                SteadyPerExpr);
    std::printf("CSV,index_throughput,%s,%u,%zu,%.6f,%.0f,%.4f,%.4f\n",
                Family, Threads, Corpus.size(), Sec, Rate, PerExpr,
                SteadyPerExpr);

    if (Threads == 1) {
      // Sanity line: dedup must actually have happened.
      IndexStats S = Index.stats();
      std::printf("%8s classes=%zu duplicates=%llu collisions=%llu\n", "",
                  Index.numClasses(),
                  static_cast<unsigned long long>(S.Duplicates),
                  static_cast<unsigned long long>(S.VerifiedCollisions));
      Classes = Index.numClasses();
      RetainedBytes = Index.retainedBytes();
      SavedIndex = saveIndexBytes(Index);
    }
  }

  // Persistence: write the saved HMAI image to a real file and reopen it
  // the way every file open works -- mmap (O(shards), no per-class work)
  // plus the O(classes) table verify -- and compare against the 1-thread
  // rebuild above. Then batch-query the whole corpus through the mapped
  // reader: every member must be present.
  double MmapOpenSec = -1, ReopenSec = -1, MmapBatchSec = -1;
  double PerClass =
      Classes ? static_cast<double>(RetainedBytes) / Classes : 0.0;
  const std::string MappedPath =
      std::string("index_throughput.") + Family + ".hmai.tmp";
  std::string WriteError;
  std::unique_ptr<MappedIndex<Hash128>> Mapped;
  std::unique_ptr<AlphaHashIndex<>> Restored;
  if (writeFileReplacing(MappedPath, SavedIndex, &WriteError)) {
    MmapOpenSec = timeOnce(
        [&] { Mapped = MappedIndex<Hash128>::open(MappedPath).Reader; });
    bool Verified = false;
    double VerifySec = timeOnce([&] { Verified = Mapped && Mapped->verify(); });
    ReopenSec = MmapOpenSec + VerifySec;
    if (Verified && Mapped->numClasses() == Classes) {
      size_t MappedHits = 0;
      MmapBatchSec = timeOnce([&] {
        for (const auto &R : Mapped->lookupBatch(Corpus, 1))
          MappedHits += R.has_value();
      });
      std::printf("%8s reopen (open + verify) %s vs rebuild %s (%.0fx); "
                  "mmap-open %s (%s); corpus query %s; file %zu B; "
                  "retained %.1f B/class\n",
                  "", fmtSeconds(ReopenSec).c_str(), fmtSeconds(Base).c_str(),
                  ReopenSec > 0 ? Base / ReopenSec : 0.0,
                  fmtSeconds(MmapOpenSec).c_str(), Mapped->backendName(),
                  fmtSeconds(MmapBatchSec).c_str(), SavedIndex.size(),
                  PerClass);
      if (MappedHits != Corpus.size())
        std::printf("ERROR: mapped reader hit %zu/%zu corpus members\n",
                    MappedHits, Corpus.size());
      Restored = AlphaHashIndex<>::restore(
          {Mapped->numShards(), Mapped->schema().seed()}, Mapped->snapshot(),
          Mapped->stats());
    } else {
      std::printf("ERROR: reopened index does not open, verify and match "
                  "(%zu classes)\n",
                  Classes);
    }
    std::remove(MappedPath.c_str());
  } else {
    std::printf("ERROR: cannot write %s: %s\n", MappedPath.c_str(),
                WriteError.c_str());
  }
  std::printf("CSV,index_reopen,%s,%zu,%zu,%.6f,%.6f,%.1f,%.6f,%.6f\n",
              Family, Classes, SavedIndex.size(), ReopenSec, Base, PerClass,
              MmapOpenSec, MmapBatchSec);

  // Steady-state read-path throughput on the live copy restored from the
  // verified reader (see measureLookup: best-of-reps so the number is
  // stable enough for CI's 5% obs-overhead gate).
  if (Restored)
    measureLookup(Family, *Restored, Corpus);
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
      !writeFileReplacing(File, saveIndexBytes(BaseIdx), &WriteError)) {
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
#if defined(__unix__) || defined(__APPLE__)
    ::rmdir(Dir.c_str());
#endif
    std::remove(File.c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool LookupOnly = false;
  bool SegmentOnly = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--lookup-only") == 0)
      LookupOnly = true;
    else if (std::strcmp(Argv[I], "--segment") == 0)
      SegmentOnly = true;
    else {
      std::fprintf(stderr, "usage: %s [--lookup-only | --segment]\n",
                   Argv[0]);
      return 2;
    }
  }
  if (LookupOnly && SegmentOnly) {
    std::fprintf(stderr, "error: --lookup-only and --segment are mutually "
                         "exclusive\n");
    return 2;
  }
  size_t Count = fullMode() ? 100000 : 10000;
  unsigned HW = std::thread::hardware_concurrency();
  std::printf("index ingest throughput (hardware_concurrency=%u, obs %s)\n",
              HW, obs::Enabled ? "on" : "off");
  std::printf("CSV,env,%u,%d,%d\n", HW, HW <= 1 ? 1 : 0,
              obs::Enabled ? 1 : 0);
  if (LookupOnly) {
    runFamilyLookupOnly("balanced", Count, 64);
    runFamilyLookupOnly("unbalanced", Count / 4, 256);
    return 0;
  }
  if (SegmentOnly) {
    runSegmentUpdate();
    return 0;
  }
  runFamily("balanced", Count, 64);
  runFamily("unbalanced", Count / 4, 256);
  runSegmentUpdate();

  // Every obs histogram the run populated, as log2-bucket summaries.
  // Nothing is printed under HMA_OBS_OFF (the snapshot is empty).
  obs::Snapshot Snap = obs::Registry::global().snapshot();
  for (const obs::HistogramRow &H : Snap.Histograms) {
    if (!H.Data.Count)
      continue;
    std::printf("CSV,obs_hist,%s,%llu,%.0f,%.0f,%.0f,%llu\n", H.Name.c_str(),
                static_cast<unsigned long long>(H.Data.Count),
                H.Data.percentile(0.5), H.Data.percentile(0.9),
                H.Data.percentile(0.99),
                static_cast<unsigned long long>(H.Data.Max));
  }
  return 0;
}
