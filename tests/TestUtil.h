//===- tests/TestUtil.h - Shared test helpers -------------------------------===//
///
/// \file
/// Conveniences shared across the test suites.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_TESTS_TESTUTIL_H
#define HMA_TESTS_TESTUTIL_H

#include "ast/DeBruijn.h"
#include "ast/Expr.h"
#include "ast/Parser.h"
#include "ast/Serialize.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "index/IndexReader.h"
#include "index/MappedIndex.h"
#include "index/SegmentCompactor.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace hma {

/// Parse with a hard assertion and a readable failure message.
inline const Expr *parseT(ExprContext &Ctx, std::string_view Src) {
  ParseResult R = parseExpr(Ctx, Src);
  EXPECT_TRUE(R.ok()) << "parse error at offset " << R.ErrorPos << ": "
                      << R.Error << "\n  in: " << Src;
  return R.E;
}

/// A random term of about \p Size nodes whose every variable and binder
/// is drawn from a pool of \p PoolSize names ("v0", "v1", ...): Lam and
/// Let binders repeat, shadow each other and clash with free uses, which
/// is what the distinct-binder and exact-verify differentials need.
inline const Expr *genShadowHeavy(ExprContext &Ctx, Rng &R, unsigned Size,
                                  unsigned PoolSize) {
  auto Pick = [&] {
    return Ctx.name("v" + std::to_string(R.below(PoolSize)));
  };
  if (Size <= 1)
    return R.below(5) == 0 ? Ctx.intConst(R.range(-2, 2)) : Ctx.var(Pick());
  switch (R.below(3)) {
  case 0:
    return Ctx.lam(Pick(), genShadowHeavy(Ctx, R, Size - 1, PoolSize));
  case 1: {
    unsigned Left = 1 + static_cast<unsigned>(R.below(Size - 1));
    return Ctx.app(genShadowHeavy(Ctx, R, Left, PoolSize),
                   genShadowHeavy(Ctx, R, Size - Left, PoolSize));
  }
  default: {
    if (Size < 3)
      return Ctx.lam(Pick(), genShadowHeavy(Ctx, R, Size - 1, PoolSize));
    unsigned Bound = 1 + static_cast<unsigned>(R.below(Size - 2));
    return Ctx.let(Pick(), genShadowHeavy(Ctx, R, Bound, PoolSize),
                   genShadowHeavy(Ctx, R, Size - 1 - Bound, PoolSize));
  }
  }
}

/// Hand-build an `ast/Serialize` blob: header, the given name table, then
/// \p Body (node tags and varint payloads, each a single byte here).
inline std::string handBlob(const std::vector<std::string> &Names,
                            const std::vector<uint8_t> &Body) {
  std::string Bytes = "HMA1";
  Bytes.push_back(static_cast<char>(Names.size()));
  for (const std::string &N : Names) {
    Bytes.push_back(static_cast<char>(N.size()));
    Bytes += N;
  }
  for (uint8_t B : Body)
    Bytes.push_back(static_cast<char>(B));
  return Bytes;
}

/// Node tags of the serialized format, for \ref handBlob bodies.
constexpr uint8_t TagVar = uint8_t(ExprKind::Var),
                  TagLam = uint8_t(ExprKind::Lam),
                  TagApp = uint8_t(ExprKind::App),
                  TagLet = uint8_t(ExprKind::Let),
                  TagConst = uint8_t(ExprKind::Const);

/// Field-by-field equality of two aggregated index stats blocks.
/// The differential contract of the live/restored/mapped index backends
/// lives in these helpers (and the two below) so every suite asserts
/// the same identity.
inline void expectStatsEq(const IndexStats &A, const IndexStats &B) {
  EXPECT_EQ(A.Inserted, B.Inserted);
  EXPECT_EQ(A.NewClasses, B.NewClasses);
  EXPECT_EQ(A.Duplicates, B.Duplicates);
  EXPECT_EQ(A.FallbackChecks, B.FallbackChecks);
  EXPECT_EQ(A.VerifiedCollisions, B.VerifiedCollisions);
  EXPECT_EQ(A.DecodeErrors, B.DecodeErrors);
}

/// Field-by-field equality of two class-summary exports (snapshots or
/// largest-classes selections) from any pair of index backends.
template <typename H>
void expectClassSummariesEq(const std::vector<ClassSummary<H>> &SA,
                            const std::vector<ClassSummary<H>> &SB) {
  ASSERT_EQ(SA.size(), SB.size());
  for (size_t I = 0; I != SA.size(); ++I) {
    EXPECT_EQ(SA[I].Hash, SB[I].Hash);
    EXPECT_EQ(SA[I].Count, SB[I].Count);
    EXPECT_EQ(SA[I].CanonicalBytes, SB[I].CanonicalBytes);
  }
}

/// Assert two lookup-result vectors (vector<optional<LookupResult<H>>>,
/// from any pair of index read paths) answer identically, field by
/// field.
template <typename ResultVec>
void expectSameLookupAnswers(const ResultVec &A, const ResultVec &B,
                             const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I != A.size(); ++I) {
    ASSERT_EQ(A[I].has_value(), B[I].has_value()) << What << " query " << I;
    if (!A[I])
      continue;
    EXPECT_EQ(A[I]->Hash, B[I]->Hash) << What << " query " << I;
    EXPECT_EQ(A[I]->Count, B[I]->Count) << What << " query " << I;
    EXPECT_EQ(A[I]->CanonicalBytes, B[I]->CanonicalBytes)
        << What << " query " << I;
  }
}

/// The reference model of an index ingested on one thread, built from
/// the decoder alone and never from the index's byte path. Classes are
/// keyed by the de Bruijn rendering of each decoded member. Each class
/// holds its member count, its alpha-hash from the Expr driver, and the
/// representative the index contract names:
/// serializeExpr(uniquifyBinders(decode(B))) of its first member B, in a
/// fresh context.
template <typename H> class ReferenceIndex {
public:
  struct Class {
    H Hash{};
    uint64_t Count = 0;
    std::string Bytes;
  };

  explicit ReferenceIndex(uint64_t Seed = HashSchema::DefaultSeed)
      : Schema(Seed) {}

  /// Ingest one blob. False (and nothing changes) if it does not decode.
  bool insert(std::string_view Blob) {
    std::optional<Decoded> D = decode(Blob);
    if (!D)
      return false;
    auto [It, Fresh] = ByKey.try_emplace(D->Key);
    if (Fresh) {
      It->second = {D->Hash, 0, std::move(D->Bytes)};
      FirstSeen.push_back(&It->second);
    }
    ++It->second.Count;
    return true;
  }

  /// The answer a lookup of \p Blob must give: its class, or nullopt for
  /// a miss or a malformed blob.
  std::optional<LookupResult<H>> lookup(std::string_view Blob) const {
    std::optional<Decoded> D = decode(Blob);
    if (!D)
      return std::nullopt;
    auto It = ByKey.find(D->Key);
    if (It == ByKey.end())
      return std::nullopt;
    return LookupResult<H>{It->second.Hash, It->second.Count,
                           It->second.Bytes};
  }

  /// The exact checks, and the refuted ones among them, a probe for
  /// \p Blob runs against a one-thread ingest: one per class stored
  /// under its hash, in first-seen order, up to and including its own.
  std::pair<uint64_t, uint64_t> checks(std::string_view Blob) const {
    std::optional<Decoded> D = decode(Blob);
    uint64_t Checks = 0;
    if (!D)
      return {0, 0};
    auto Own = ByKey.find(D->Key);
    for (const Class *C : FirstSeen) {
      if (C->Hash != D->Hash)
        continue;
      ++Checks;
      if (Own != ByKey.end() && C == &Own->second)
        return {Checks, Checks - 1};
    }
    return {Checks, Checks};
  }

  /// Every class, sorted by (hash, bytes) like IndexReader::snapshot.
  std::vector<ClassSummary<H>> snapshot() const {
    std::vector<ClassSummary<H>> Out;
    for (const Class *C : FirstSeen)
      Out.push_back({C->Hash, C->Count, C->Bytes});
    std::sort(Out.begin(), Out.end(), detail::lessByHashThenBytes<H>);
    return Out;
  }

private:
  struct Decoded {
    std::string Key;
    H Hash{};
    std::string Bytes;
  };

  std::optional<Decoded> decode(std::string_view Blob) const {
    ExprContext Ctx;
    DeserializeResult D = deserializeExpr(Ctx, Blob);
    if (!D.ok())
      return std::nullopt;
    const Expr *U = uniquifyBinders(Ctx, D.E);
    return Decoded{toDeBruijnString(Ctx, U),
                   AlphaHasher<H>(Ctx, Schema).hashRoot(U),
                   serializeExpr(Ctx, U)};
  }

  HashSchema Schema;
  std::map<std::string, Class> ByKey; ///< Node-based: pointers stay put.
  std::vector<const Class *> FirstSeen;
};

/// A live copy of an `HMAI` image, built the one way a file becomes a
/// live index: `MappedIndex::openBytes`, `verify`, then
/// `AlphaHashIndex::restore` from the verified reader (re-striped over
/// \p Shards when nonzero). Null, with a test failure recorded, when the
/// image does not open and verify.
template <typename H>
std::unique_ptr<AlphaHashIndex<H>> restoreVerified(std::string_view Image,
                                                   unsigned Shards = 0) {
  typename MappedIndex<H>::OpenResult M = MappedIndex<H>::openBytes(Image);
  std::string Error = M.Error;
  if (!M.ok() || !M.Reader->verify(&Error)) {
    ADD_FAILURE() << "image does not open and verify: " << Error;
    return nullptr;
  }
  return AlphaHashIndex<H>::restore(
      {Shards ? Shards : M.Reader->numShards(), M.Reader->schema().seed()},
      M.Reader->snapshot(), M.Reader->stats());
}

/// A compactor racing the test: a thread that runs \ref compactSegments
/// on \p Dir every \p PollMs until stopped (or destroyed), counting the
/// merges it committed. What a long-running maintenance process would
/// do; at most one per directory, like any compactor.
template <typename H> class CompactorThread {
public:
  CompactorThread(std::string Dir, unsigned PollMs)
      : Dir(std::move(Dir)), PollMs(PollMs), Thread([this] { run(); }) {}
  ~CompactorThread() { stop(); }

  void stop() {
    if (!Stop.exchange(true))
      Thread.join();
  }
  uint64_t compactions() const { return Merges.load(); }
  std::string lastError() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return LastError;
  }

private:
  void run() {
    while (!Stop.load()) {
      SegmentCompactResult R = compactSegments<H>(Dir);
      if (!R.Ok) {
        std::lock_guard<std::mutex> Lock(Mu);
        LastError = R.Error;
      } else if (R.SegmentsAfter < R.SegmentsBefore) {
        Merges.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(PollMs));
    }
  }

  const std::string Dir;
  const unsigned PollMs;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Merges{0};
  mutable std::mutex Mu;
  std::string LastError;
  std::thread Thread; ///< Last: starts once every field above exists.
};

} // namespace hma

#endif // HMA_TESTS_TESTUTIL_H
