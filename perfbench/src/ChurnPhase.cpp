//===- perfbench/src/ChurnPhase.cpp - Writes beside reads on a segment dir -===//
///
/// \file
/// A segment directory is seeded with balanced terms. Each round appends
/// a ~1% delta with `appendSegment` (half renamed duplicates of stored
/// terms, half new terms), reopens the directory as a `SegmentedIndex`
/// and runs a `lookupBatch` of hits and misses over the union;
/// `compactSegments` runs whenever the directory reaches 8 segments, and
/// the phase always ends on a compaction. Commits go through
/// \ref CountingIoEnv with the library's own fsync policy.
///
/// `cpu_ns_per_op` is the CPU time of the library calls of one
/// append/compact cycle (appends, reopens, lookup batches, the
/// compaction) per delta expression appended in it; the median over the
/// run's cycles. It leaves out time waiting for fsync, which the wall
/// metrics (`append_p50_ms`, `ingest_exprs_s`) and `support.fsync_ms`
/// keep.
///
/// The oracle is a std::map keyed by `toDeBruijnString` holding each
/// class's member count. After every append and compaction the union's
/// class count and every lookup answer (presence, count, representative)
/// must agree with it.
///
//===----------------------------------------------------------------------===//

#include "CountingIoEnv.h"
#include "Corpus.h"
#include "Phases.h"

#include "index/AlphaHashIndex.h"
#include "index/IndexIO.h"
#include "index/SegmentCompactor.h"
#include "index/SegmentSet.h"

#include <map>
#include <thread>

using namespace hma;

namespace perfbench {
namespace {

constexpr unsigned Threads = 4;
constexpr size_t CompactAt = 8;    ///< Segments that trigger compaction.
constexpr size_t QueriesPerRound = 2048;
constexpr size_t SeedClasses = size_t(1) << 16;
constexpr size_t DeltaSize = SeedClasses / 100;

class ChurnPhase : public Phase {
public:
  const char *name() const override { return "churn"; }

  void setup(RunEnv &Env) override {
    Corpus C = makeBalancedCorpus(Env.Seed ^ 0x434855524eULL, SeedClasses, 16,
                                  64, Threads);
    AlphaHashIndex<> Seed({64, HashSchema::DefaultSeed});
    Seed.insertBatch(C.Blobs, Threads);
    Dir = Env.WorkDir + "/segments";
    SegmentAppendOptions Opts;
    Opts.Env = &Io;
    SegmentAppendResult R = createSegmentDir(Dir, Seed, Opts);
    if (!R.Ok)
      fail("churn: create: " + R.Error);
    std::vector<std::string> Keys(C.Blobs.size());
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        for (size_t I = T; I < Keys.size(); I += Threads)
          Keys[I] = deBruijnOfBlob(C.Blobs[I]);
      });
    for (std::thread &T : Pool)
      T.join();
    for (const std::string &K : Keys)
      ++Ref[K];
    Stored = std::move(C.Blobs);
  }

  /// Runs whole append/compact cycles until the time is up.
  void measure(RunEnv &Env) override {
    const uint64_t Start = nowNs();
    while (!JustCompacted || secondsSince(Start) < Env.Seconds)
      round(Env);
    Env.Out->set("cpu_ns_per_op", median(CycleCpuNsPerExpr));
    // Compaction amortized over the appends of one cycle.
    const double CycleMs =
        median(AppendMs) + median(CompactMs) / double(CompactAt - 1);
    Env.Out->set("ingest_exprs_s", double(DeltaSize) / (CycleMs * 1e-3));
    Env.Out->set("append_p50_ms", quantile(AppendMs, 0.5));
    Env.Out->set("append_p90_ms", quantile(AppendMs, 0.9));
    // Average over one cycle's segment counts (1..CompactAt): the
    // per-query time at each count, then the mean across counts.
    std::vector<double> NsPerQuery;
    for (const auto &[Segs, Ns] : LookupNsBySegments)
      NsPerQuery.push_back(median(Ns));
    Env.Out->set("segmented_lookup_qps", 1e9 / mean(NsPerQuery));
    Env.Out->set("index_bytes_per_class", CompactedBytesPerClass);
    recordFacts(Env);
  }

  void trace(RunEnv &Env) override {
    const uint64_t Start = nowNs();
    while (!JustCompacted || secondsSince(Start) < Env.Seconds)
      round(Env);
    Metrics &M = *Env.Out;
    auto Self = Env.Trace->selfNanos();
    M.set("index.segments_per_lookup", double(SegmentProbes) / double(Looked));
    M.set("index.segment_open_ms", Self["index.segment_open"].first * 1e-6 /
                                       double(Self["index.segment_open"].second));
    M.set("index.stage_ns_per_expr",
          Self["index.stage"].first / double(Ingested));
    M.set("index.append_ms", mean(AppendMs));
    M.set("index.compact_ms", mean(CompactMs));
    M.set("index.save_ns_per_class", Self["index.save"].first / double(Saved));
    const CountingIoEnv::Counts &C = Io.counts();
    M.set("support.write_bytes_per_input_byte",
          double(AppendIo.BytesWritten) / double(InputBytes));
    M.set("support.fsyncs_per_append",
          double(AppendIo.Fsyncs + AppendIo.FsyncDirs) / double(AppendMs.size()));
    M.set("support.fsync_ms",
          double(C.FsyncNs) * 1e-6 / double(C.Fsyncs + C.FsyncDirs));
    recordFacts(Env);
  }

private:
  /// One append (then a reopen and oracle check), plus a compaction when
  /// the directory reaches CompactAt segments.
  void round(RunEnv &Env) {
    Tracer &T = *Env.Trace;
    const uint64_t Round = ++Rounds;
    Tracer::Scope Root(T, "churn.round", Round);
    const uint64_t RoundSeed = Env.Seed * 1000003 + Round;
    std::vector<std::string> Delta = makeDelta(RoundSeed);
    std::vector<std::string> Keys;
    for (const std::string &B : Delta) {
      Keys.push_back(deBruijnOfBlob(B));
      InputBytes += B.size();
    }
    if (T.On)
      replicateStaging(T, Delta, Round);

    const CountingIoEnv::Counts Before = Io.counts();
    SegmentAppendOptions Opts;
    Opts.Threads = Threads;
    Opts.Env = &Io;
    uint64_t C0 = processCpuNs(), T0 = nowNs();
    SegmentAppendResult A;
    {
      Tracer::Scope S(T, "index.append", Round);
      A = appendSegment<Hash128>(Dir, Delta, Opts);
    }
    const uint64_t AppendNs = nowNs() - T0;
    CycleCpuNs += processCpuNs() - C0;
    if (!A.Ok)
      fail("churn: append: " + A.Error);
    const CountingIoEnv::Counts After = Io.counts();
    AppendIo.BytesWritten += After.BytesWritten - Before.BytesWritten;
    AppendIo.Fsyncs += After.Fsyncs - Before.Fsyncs;
    AppendIo.FsyncDirs += After.FsyncDirs - Before.FsyncDirs;
    AppendMs.push_back(double(AppendNs) * 1e-6);
    Ingested += Delta.size();
    CycleExprs += Delta.size();
    for (const std::string &K : Keys)
      ++Ref[K];
    checkUnion(Env, RoundSeed);

    JustCompacted = ++Segments == CompactAt;
    if (!JustCompacted)
      return;
    C0 = processCpuNs();
    T0 = nowNs();
    SegmentCompactResult C;
    {
      Tracer::Scope S(T, "index.compact", Round);
      C = compactSegments<Hash128>(Dir, &Io);
    }
    const uint64_t CompactNs = nowNs() - T0;
    CycleCpuNs += processCpuNs() - C0;
    if (!C.Ok)
      fail("churn: compact: " + C.Error);
    CompactMs.push_back(double(CompactNs) * 1e-6);
    Segments = 1;
    checkUnion(Env, RoundSeed ^ 0xC0);
    CycleCpuNsPerExpr.push_back(double(CycleCpuNs) / double(CycleExprs));
    CycleCpuNs = CycleExprs = 0;
  }

  /// Half renamed duplicates of stored terms, half new terms.
  std::vector<std::string> makeDelta(uint64_t RoundSeed) {
    const size_t N = DeltaSize;
    std::vector<std::string> Delta =
        makeRenamedCopies(Stored, N / 2, RoundSeed);
    Corpus Fresh = makeBalancedCorpus(RoundSeed, N - N / 2, 16, 64, 1);
    for (std::string &B : Fresh.Blobs) {
      Delta.push_back(B);
      Stored.push_back(std::move(B));
    }
    return Delta;
  }

  /// What `appendSegment` does before its durable writes, replayed on
  /// the same delta so staging and saving get their own spans.
  void replicateStaging(Tracer &T, const std::vector<std::string> &Delta,
                        uint64_t Round) {
    AlphaHashIndex<> Scratch({64, HashSchema::DefaultSeed});
    {
      Tracer::Scope S(T, "index.stage", Round, /*Replica=*/true);
      Scratch.insertBatch(Delta, Threads);
    }
    Tracer::Scope S(T, "index.save", Round, /*Replica=*/true);
    (void)saveIndexBytes(Scratch);
    Saved += Scratch.numClasses();
  }

  /// Reopen the directory and compare the union with the oracle: class
  /// count, and every answer of a hit/miss lookup batch.
  void checkUnion(RunEnv &Env, uint64_t QuerySeed) {
    Tracer &T = *Env.Trace;
    QuerySet Q = makeQueries(Stored, QueriesPerRound, QuerySeed);
    const uint64_t C0 = processCpuNs();
    SegmentedIndex<>::OpenResult Open;
    {
      Tracer::Scope S(T, "index.segment_open", QuerySeed);
      Open = SegmentedIndex<>::open(Dir);
    }
    CycleCpuNs += processCpuNs() - C0;
    if (!Open.ok())
      fail("churn: reopen: " + Open.Error);
    const SegmentedIndex<> &Ix = *Open.Reader;
    ++Env.Check->Attempted;
    Env.Check->expect(Ix.numClasses() == Ref.size(),
                      "churn: union class count differs from the oracle");
    if (Ix.set().numSegments() == 1)
      CompactedBytesPerClass =
          double(Ix.set().segments().front()->imageBytes().size()) /
          double(Ix.numClasses());

    const uint64_t C1 = processCpuNs(), T0 = nowNs();
    std::vector<std::optional<LookupResult<Hash128>>> R;
    {
      Tracer::Scope S(T, "index.segmented_lookup", QuerySeed);
      R = Open.Reader->lookupBatch(Q.Blobs, Threads);
    }
    CycleCpuNs += processCpuNs() - C1;
    LookupNsBySegments[Ix.set().numSegments()].push_back(
        double(nowNs() - T0) / double(Q.Blobs.size()));
    Looked += Q.Blobs.size();
    SegmentProbes += Q.Blobs.size() * Ix.set().numSegments();

    AnswerChecker Check(Q);
    for (size_t I = 0; I != R.size(); ++I) {
      ++Env.Check->Attempted;
      bool Ok = Check.check(I, R[I] ? std::optional<std::string_view>(
                                          R[I]->CanonicalBytes)
                                    : std::nullopt);
      if (Ok && R[I]) {
        auto It = Ref.find(Q.Key[I]);
        Ok = It != Ref.end() && It->second == R[I]->Count;
      }
      Env.Check->expect(Ok, "churn: segmented answer differs from the oracle");
    }
  }

  void recordFacts(RunEnv &Env) const {
    Env.Facts->set("churn.seed_classes", double(SeedClasses));
    Env.Facts->set("churn.union_classes", double(Ref.size()));
    Env.Facts->set("churn.appends", double(AppendMs.size()));
    Env.Facts->set("churn.compactions", double(CompactMs.size()));
    Env.Facts->set("churn.renames", double(Io.counts().Renames));
  }

  std::string Dir;
  std::vector<std::string> Stored;
  std::map<std::string, uint64_t> Ref;
  CountingIoEnv Io;
  CountingIoEnv::Counts AppendIo;
  size_t Segments = 1;
  uint64_t Rounds = 0;
  bool JustCompacted = false;
  std::vector<double> AppendMs, CompactMs;
  /// Library CPU time and delta size of the current cycle, and the CPU
  /// time per expression of every completed one.
  uint64_t CycleCpuNs = 0, CycleExprs = 0;
  std::vector<double> CycleCpuNsPerExpr;
  /// Per-query lookup time, by the number of segments probed.
  std::map<size_t, std::vector<double>> LookupNsBySegments;
  uint64_t Ingested = 0, Looked = 0, SegmentProbes = 0, InputBytes = 0;
  uint64_t Saved = 0;
  double CompactedBytesPerClass = 0;
};

} // namespace

std::unique_ptr<Phase> makeChurnPhase() {
  return std::make_unique<ChurnPhase>();
}

} // namespace perfbench
