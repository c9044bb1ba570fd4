//===- examples/corpus_dedup.cpp - Interning a corpus modulo alpha -----------===//
///
/// \file
/// The end-to-end serving story: a stream of expressions from many
/// producers (here: three "teams" writing the same two library functions
/// with their own naming conventions) is interned into one
/// \ref AlphaHashIndex, which deduplicates modulo alpha-equivalence,
/// answers membership queries, and exports the canonical corpus.
///
/// The ingest loop holds ONE long-lived \ref AlphaHasher and passes it to
/// every insert, so the hasher's scratch is reused across the stream. The
/// per-line `+N pool nodes` column prints how many map nodes each ingest
/// carved out of the pool arena: for functions this small the adaptive
/// variable maps stay inline and the answer is zero for every single
/// expression -- the zero-allocation pipeline at its best.
///
//===----------------------------------------------------------------------===//

#include "index/AlphaHashIndex.h"

#include "ast/Parser.h"
#include "ast/Printer.h"
#include "ast/Serialize.h"
#include "index/CorpusIO.h"
#include "index/IndexIO.h"
#include "index/MappedIndex.h"

#include <cstdio>

using namespace hma;

int main() {
  // Three teams, same two functions, different spellings. `compose` and
  // `twice` are each written three ways; `const` only once.
  const char *Corpus[] = {
      // team A
      "(lam (f g x) (f (g x)))",
      "(lam (f) (lam (x) (f (f x))))",
      "(lam (a b) a)",
      // team B
      "(lam (outer inner arg) (outer (inner arg)))",
      "(lam (fn) (lam (v) (fn (fn v))))",
      // team C
      "(lam (p q r) (p (q r)))",
      "(lam (h) (lam (y) (h (h y))))",
  };

  AlphaHashIndex<> Index;
  ExprContext Ctx;
  // One hasher for the whole stream: its pool, worklist and value stack
  // persist across inserts instead of being re-allocated per expression.
  AlphaHasher<Hash128> Hasher(Ctx, Index.schema());
  for (const char *Src : Corpus) {
    const Expr *E = parseOrDie(Ctx, Src);
    size_t Before = Hasher.poolAllocatedNodes();
    Hash128 H = Index.insert(Ctx, E, Hasher);
    std::printf("ingest %s  +%zu pool nodes  %s\n", H.toHex().c_str(),
                Hasher.poolAllocatedNodes() - Before, Src);
  }
  std::printf("(scratch reuse: %zu pool nodes total; steady-state ingest "
              "allocates none)\n",
              Hasher.poolAllocatedNodes());

  std::printf("\n%zu submissions -> %zu distinct functions\n",
              std::size(Corpus), Index.numClasses());

  // Membership is modulo alpha: a fourth spelling of `twice` is already
  // present; an eta-expanded variant is genuinely new.
  const Expr *Fresh = parseOrDie(Ctx, "(lam (w) (lam (z) (w (w z))))");
  const Expr *Eta = parseOrDie(Ctx, "(lam (f) (lam (x) (f (f (f x)))))");
  auto Hit = Index.lookup(Ctx, Fresh, Hasher);
  std::printf("\n(lam (w) (lam (z) (w (w z)))) -> %s\n",
              Hit ? "already interned" : "new");
  if (Hit)
    std::printf("  %llu copies seen so far\n",
                static_cast<unsigned long long>(Hit->Count));
  std::printf("(lam (f) (lam (x) (f (f (f x))))) -> %s\n",
              Index.contains(Ctx, Eta) ? "already interned" : "new");

  // Export the deduplicated corpus: one canonical representative per
  // class, in a stable order, as a binary container.
  std::vector<std::string> Canonical;
  for (auto &C : Index.snapshot())
    Canonical.push_back(std::move(C.CanonicalBytes));
  std::string Packed = packCorpus(Canonical);
  std::printf("\ncanonical corpus: %zu expressions, %zu bytes packed\n",
              Canonical.size(), Packed.size());
  for (const std::string &Bytes : Canonical) {
    ExprContext C;
    DeserializeResult R = deserializeExpr(C, Bytes);
    if (R.ok())
      std::printf("  %s\n", printExpr(C, R.E).c_str());
  }

  IndexStats S = Index.stats();
  std::printf("\nstats: %llu inserted, %llu merged as duplicates, "
              "%llu exact checks, %llu verified collisions\n",
              static_cast<unsigned long long>(S.Inserted),
              static_cast<unsigned long long>(S.Duplicates),
              static_cast<unsigned long long>(S.FallbackChecks),
              static_cast<unsigned long long>(S.VerifiedCollisions));

  // Persist the whole index -- classes, counts, stats -- as HMAI bytes
  // and reopen them over the zero-copy reader (tables verified): the
  // reopened service answers the same queries without re-ingesting (or
  // even re-hashing) anything. On disk this is what `hma index build
  // --out` writes and `hma index open` serves from.
  std::string Image = saveIndexBytes(Index);
  auto Reopened = MappedIndex<Hash128>::openBytes(Image);
  std::string Error = Reopened.Error;
  if (!Reopened.ok() || !Reopened.Reader->verify(&Error)) {
    std::fprintf(stderr, "reopen failed: %s\n", Error.c_str());
    return 1;
  }
  auto Again = Reopened.Reader->lookup(Ctx, Fresh);
  std::printf("\nsaved %zu B HMAI image; reopened: %zu classes, "
              "twice-lookup %s (count=%llu)\n",
              Image.size(), Reopened.Reader->numClasses(),
              Again ? "present" : "absent",
              static_cast<unsigned long long>(Again ? Again->Count : 0));
  return 0;
}
