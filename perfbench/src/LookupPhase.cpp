//===- perfbench/src/LookupPhase.cpp - Mapped in-process lookups -----------===//
///
/// \file
/// Closed loop of `MappedIndex::lookupBatch` on 4 workers against an HMAI
/// file of balanced terms (16-256 nodes, log-uniform), queried with a
/// 50/50 hit/miss mix. `cpu_ns_per_op` is the CPU time of one timed
/// batch call, summed over its workers, per query. The traced walk
/// replays the lookup path stage by
/// stage: `deserializeExpr`, `uniquifyBinders`, `hashRoot`,
/// `probeHashCounts`, `lookupHashed`, and -- as labelled replicas on the
/// returned bytes -- the candidate decode and `alphaEquivalent` that run
/// inside `lookupHashed`.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Phases.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "index/MappedIndex.h"

using namespace hma;

namespace perfbench {
namespace {

constexpr unsigned Workers = 4;
constexpr size_t BatchSize = 4096;
constexpr size_t Classes = size_t(1) << 17;

class LookupPhase : public Phase {
public:
  const char *name() const override { return "lookup"; }

  void setup(RunEnv &Env) override {
    const size_t Queries = 8192;
    Corpus C = makeBalancedCorpus(Env.Seed, Classes, 16, 256, Workers);
    Q = makeQueries(C.Blobs, Queries, Env.Seed);
    Path = Env.WorkDir + "/lookup.hmai";
    std::string Error;
    NumClasses = writeIndexFile(C.Blobs, Path, Workers, &Error);
    if (!NumClasses)
      fail("lookup: " + Error);
    StoredNodes = C.Nodes;
    C = Corpus();
    const uint64_t T0 = nowNs();
    auto Open = MappedIndex<>::open(Path);
    if (!Open.ok() || !Open.Reader->verify(&Error))
      fail("lookup: open/verify: " + Open.Error + Error);
    OpenVerifyMs = secondsSince(T0) * 1e3;
    Reader = std::move(Open.Reader);
    for (size_t I = 0; I < Q.Blobs.size(); I += BatchSize)
      Batches.emplace_back(
          Q.Blobs.begin() + I,
          Q.Blobs.begin() + std::min(I + BatchSize, Q.Blobs.size()));
  }

  void measure(RunEnv &Env) override {
    AnswerChecker Check(Q);
    // Warm the mapping and the workers' allocators before timing.
    for (size_t B = 0; B != Batches.size(); ++B)
      checkBatch(Env, Check, B, Reader->lookupBatch(Batches[B], Workers));
    std::vector<double> Rates, CpuNs; // per timed batch call
    const uint64_t Start = nowNs();
    for (size_t B = 0; secondsSince(Start) < Env.Seconds;
         B = (B + 1) % Batches.size()) {
      const double N = double(Batches[B].size());
      const uint64_t C0 = processCpuNs(), T0 = nowNs();
      auto Results = Reader->lookupBatch(Batches[B], Workers);
      Rates.push_back(N / secondsSince(T0));
      CpuNs.push_back(double(processCpuNs() - C0) / N);
      checkBatch(Env, Check, B, Results);
    }
    Env.Out->set("cpu_ns_per_op", median(CpuNs));
    Env.Out->set("lookup_qps", median(Rates));
    Env.Out->set("index_bytes_per_class", bytesPerClass());
    recordFacts(Env);
  }

  void trace(RunEnv &Env) override {
    Tracer &T = *Env.Trace;
    AnswerChecker Answers(Q);
    const size_t N = Q.Blobs.size();
    // Fault the mapping in first, as the untraced run's warm-up does.
    for (const auto &B : Batches)
      (void)Reader->lookupBatch(B, Workers);
    AlphaHasher<Hash128> Hasher(BootCtx, Reader->schema());
    DecodeScratch Scratch, Replica;
    std::vector<Hash128> Hashes(N);
    uint64_t Nodes = 0, HitNodes = 0, Hits = 0;

    // Per chunk of queries, three passes over the same blobs, interleaved
    // so that a change in host speed hits all three alike:
    //  A. traced: one public call per stage, per query (answer checks and
    //     the replicas are timed out of the pass);
    //  B. the same calls with the recorder off: what the stages must add
    //     up to, and the trace overhead;
    //  C. the public batch call on one thread, recorded as a fact: how
    //     far the call-by-call walk is from the batch path.
    constexpr size_t Chunk = 256;
    double TracedNs = 0, UntracedNs = 0, EndToEndNs = 0;
    uint64_t Verifies = 0, Collisions = 0; // stats() deltas of pass A
    MappedIndex<>::ReadBatchStats Stats;
    for (size_t Begin = 0; Begin < N; Begin += Chunk) {
      const size_t End = std::min(Begin + Chunk, N);
      double ExcludedNs = 0;
      ExprContext CtxA;
      Hasher.rebind(CtxA);
      const IndexStats Before = Reader->stats();
      const uint64_t A0 = nowNs();
      for (size_t I = Begin; I != End; ++I) {
        const Expr *E = nullptr;
        std::optional<LookupResult<Hash128>> R;
        {
          Tracer::Scope Root(T, "lookup", I);
          DeserializeResult D;
          {
            Tracer::Scope S(T, "ast.decode", I);
            D = deserializeExpr(CtxA, Q.Blobs[I]);
          }
          {
            Tracer::Scope S(T, "ast.uniquify", I);
            E = uniquifyBinders(CtxA, D.E);
          }
          {
            Tracer::Scope S(T, "core.hash", I);
            Hashes[I] = Hasher.hashRoot(E);
          }
          {
            Tracer::Scope S(T, "index.lookup_hashed", I);
            R = Reader->lookupHashed(CtxA, E, Hashes[I], Scratch);
          }
        }
        const uint64_t X0 = nowNs();
        Nodes += E->treeSize();
        ++Env.Check->Attempted;
        Env.Check->expect(
            Answers.check(I, R ? std::optional<std::string_view>(
                                     R->CanonicalBytes)
                               : std::nullopt),
            "lookup: traced answer");
        if (R) {
          ++Hits;
          HitNodes += E->treeSize();
          const Expr *Canon = nullptr;
          {
            Tracer::Scope S(T, "ast.verify_decode", I, /*Replica=*/true);
            Canon = Replica.decode(R->CanonicalBytes);
          }
          bool Same = false;
          {
            Tracer::Scope S(T, "ast.alpha_equiv", I, /*Replica=*/true);
            Same = alphaEquivalent(CtxA, E, Replica.context(), Canon);
          }
          Env.Check->expect(Same, "lookup: replica verify disagrees");
        }
        ExcludedNs += double(nowNs() - X0);
      }
      TracedNs += double(nowNs() - A0) - ExcludedNs;
      const IndexStats After = Reader->stats();
      Verifies += After.FallbackChecks - Before.FallbackChecks;
      Collisions += After.VerifiedCollisions - Before.VerifiedCollisions;

      T.On = false;
      ExprContext CtxB;
      Hasher.rebind(CtxB);
      const uint64_t B0 = nowNs();
      for (size_t I = Begin; I != End; ++I) {
        DeserializeResult D = deserializeExpr(CtxB, Q.Blobs[I]);
        const Expr *E = uniquifyBinders(CtxB, D.E);
        (void)Reader->lookupHashed(CtxB, E, Hasher.hashRoot(E), Scratch);
      }
      UntracedNs += double(nowNs() - B0);
      T.On = true;
      Hasher.rebind(BootCtx);

      const std::vector<std::string> Blobs(Q.Blobs.begin() + Begin,
                                           Q.Blobs.begin() + End);
      const uint64_t C0 = nowNs();
      (void)Reader->lookupBatch(Blobs, 1, &Stats);
      EndToEndNs += double(nowNs() - C0);
    }
    TracedNs /= double(N);
    UntracedNs /= double(N);
    EndToEndNs /= double(N);

    std::vector<uint32_t> Counts;
    {
      Tracer::Scope S(T, "index.probe", N);
      Reader->probeHashCounts(Hashes, Counts);
    }
    for (size_t I = 0; I != N; ++I) {
      ++Env.Check->Attempted;
      Env.Check->expect((Counts[I] > 0) == bool(Q.Hit[I]),
                        "lookup: hash-only probe count");
    }
    // Steady-state pool allocation of a 4-worker batch.
    (void)Reader->lookupBatch(Batches[0], Workers, &Stats);

    auto Self = T.selfNanos();
    auto Per = [&](const char *Name, double Div) {
      return Div > 0 ? Self[Name].first / Div : 0.0;
    };
    Metrics &M = *Env.Out;
    M.set("ast.decode_ns_per_node", Per("ast.decode", double(Nodes)));
    M.set("ast.uniquify_ns_per_node", Per("ast.uniquify", double(Nodes)));
    M.set("ast.verify_decode_ns_per_node",
          Per("ast.verify_decode", double(HitNodes)));
    M.set("ast.alpha_equiv_ns_per_node",
          Per("ast.alpha_equiv", double(HitNodes)));
    M.set("core.hash_ns_per_node", Per("core.hash", double(Nodes)));
    M.set("core.steady_pool_nodes", double(Stats.SteadyPoolNodesAllocated));
    M.set("index.probe_ns", Per("index.probe", double(N)));
    M.set("index.lookup_hashed_ns", Per("index.lookup_hashed", double(N)));
    M.set("index.verifies_per_hit", Hits ? double(Verifies) / double(Hits) : 0.0);
    M.set("index.verified_collisions", double(Collisions));
    M.set("index.open_verify_ms", OpenVerifyMs);
    const double Stages =
        (Self["ast.decode"].first + Self["ast.uniquify"].first +
         Self["core.hash"].first + Self["index.lookup_hashed"].first) /
        double(N);
    M.set("lookup.unattributed_frac",
          std::fabs(UntracedNs - Stages) / UntracedNs);
    M.set("obs.trace_overhead_frac", 1.0 - UntracedNs / TracedNs);
    Env.Facts->set("lookup.walk_vs_batch_frac",
                   (UntracedNs - EndToEndNs) / EndToEndNs);
    recordFacts(Env);
  }

private:
  void checkBatch(RunEnv &Env, AnswerChecker &Check, size_t B,
                  const std::vector<std::optional<LookupResult<Hash128>>> &R) {
    const size_t Base = B * BatchSize;
    for (size_t I = 0; I != R.size(); ++I) {
      ++Env.Check->Attempted;
      Env.Check->expect(
          Check.check(Base + I,
                      R[I] ? std::optional<std::string_view>(R[I]->CanonicalBytes)
                           : std::nullopt),
          "lookup: batch answer");
    }
  }

  double bytesPerClass() const {
    return double(Reader->imageBytes().size()) / double(NumClasses);
  }

  void recordFacts(RunEnv &Env) const {
    Env.Facts->set("lookup.classes", double(NumClasses));
    Env.Facts->set("lookup.stored_nodes", double(StoredNodes));
    Env.Facts->set("lookup.hmai_bytes", double(Reader->imageBytes().size()));
    Env.Facts->set("lookup.queries", double(Q.Blobs.size()));
    Env.Facts->set("lookup.query_nodes", double(Q.Nodes));
  }

  QuerySet Q;
  std::string Path;
  uint64_t NumClasses = 0;
  uint64_t StoredNodes = 0;
  double OpenVerifyMs = 0;
  std::unique_ptr<MappedIndex<>> Reader;
  std::vector<std::vector<std::string>> Batches;
  ExprContext BootCtx;
};

} // namespace

std::unique_ptr<Phase> makeLookupPhase() {
  return std::make_unique<LookupPhase>();
}

} // namespace perfbench
