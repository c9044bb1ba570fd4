//===- perfbench/src/Corpus.cpp - Seeded inputs and the answer oracle ------===//

#include "Corpus.h"
#include "Common.h"

#include "ast/DeBruijn.h"
#include "ast/Serialize.h"
#include "gen/RandomExpr.h"
#include "index/AlphaHashIndex.h"
#include "index/IndexIO.h"

#include <memory>
#include <thread>

using namespace hma;

namespace perfbench {

Corpus makeBalancedCorpus(uint64_t Seed, size_t Count, uint32_t MinSize,
                          uint32_t MaxSize, unsigned Threads) {
  Threads = std::max(1u, Threads);
  Corpus C;
  C.Blobs.resize(Count);
  std::vector<uint64_t> Nodes(Threads, 0);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      Rng R(Seed * 0x9E3779B97F4A7C15ULL + T + 1);
      const size_t Begin = Count * T / Threads, End = Count * (T + 1) / Threads;
      std::unique_ptr<ExprContext> Ctx;
      for (size_t I = Begin; I != End; ++I) {
        if ((I - Begin) % 4096 == 0)
          Ctx = std::make_unique<ExprContext>();
        const uint32_t Size = logUniform(R, MinSize, MaxSize);
        C.Blobs[I] = serializeExpr(*Ctx, genBalanced(*Ctx, R, Size));
        Nodes[T] += Size;
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (uint64_t N : Nodes)
    C.Nodes += N;
  return C;
}

std::string deBruijnOfBlob(std::string_view Blob) {
  ExprContext Ctx;
  DeserializeResult D = deserializeExpr(Ctx, Blob);
  return D.ok() ? toDeBruijnString(Ctx, D.E) : std::string();
}

QuerySet makeQueries(const std::vector<std::string> &Stored, size_t Count,
                     uint64_t Seed) {
  QuerySet Q;
  Rng R(Seed ^ 0x5155455259ULL);
  std::unique_ptr<ExprContext> Ctx;
  for (size_t I = 0; I != Count; ++I) {
    if (I % 4096 == 0)
      Ctx = std::make_unique<ExprContext>();
    DeserializeResult D =
        deserializeExpr(*Ctx, Stored[R.below(Stored.size())]);
    const Expr *E = alphaRename(*Ctx, R, D.E);
    const bool Hit = I % 2 == 0;
    if (!Hit)
      E = Ctx->app(E, Ctx->var(MissName));
    Q.Blobs.push_back(serializeExpr(*Ctx, E));
    Q.Hit.push_back(Hit);
    Q.Key.push_back(Hit ? toDeBruijnString(*Ctx, E) : std::string());
    Q.Nodes += E->treeSize();
  }
  // Shuffle so hits and misses interleave unpredictably.
  for (size_t I = Count; I > 1; --I) {
    const size_t J = R.below(I);
    std::swap(Q.Blobs[I - 1], Q.Blobs[J]);
    std::swap(Q.Hit[I - 1], Q.Hit[J]);
    std::swap(Q.Key[I - 1], Q.Key[J]);
  }
  return Q;
}

std::vector<std::string> makeRenamedCopies(const std::vector<std::string> &Stored,
                                           size_t Count, uint64_t Seed) {
  std::vector<std::string> Out;
  Rng R(Seed ^ 0x52454E414D45ULL);
  ExprContext Ctx;
  for (size_t I = 0; I != Count; ++I) {
    DeserializeResult D = deserializeExpr(Ctx, Stored[R.below(Stored.size())]);
    Out.push_back(serializeExpr(Ctx, alphaRename(Ctx, R, D.E)));
  }
  return Out;
}

bool AnswerChecker::check(size_t I, std::optional<std::string_view> Rep) {
  if (!Q.Hit[I])
    return !Rep;
  if (!Rep)
    return false;
  if (!Seen[I].empty())
    return Seen[I] == *Rep;
  if (deBruijnOfBlob(*Rep) != Q.Key[I])
    return false;
  Seen[I].assign(*Rep);
  return true;
}

uint64_t writeIndexFile(const std::vector<std::string> &Blobs,
                        const std::string &Path, unsigned Threads,
                        std::string *Error) {
  AlphaHashIndex<> Live({64, HashSchema::DefaultSeed});
  Live.insertBatch(Blobs, Threads);
  if (!writeFileReplacing(Path, saveIndexBytes(Live), Error))
    return 0;
  return Live.numClasses();
}

} // namespace perfbench
