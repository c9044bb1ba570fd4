//===- tests/TestUtil.h - Shared test helpers -------------------------------===//
///
/// \file
/// Conveniences shared across the test suites.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_TESTS_TESTUTIL_H
#define HMA_TESTS_TESTUTIL_H

#include "ast/Expr.h"
#include "ast/Parser.h"
#include "index/IndexReader.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <string>
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
/// The differential contract of the live/loaded/mapped index backends
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

} // namespace hma

#endif // HMA_TESTS_TESTUTIL_H
