//===- tests/serialize_test.cpp - Serialization tests ------------------------===//
///
/// \file
/// Round-trips, cross-context hash stability, and defensive decoding of
/// corrupt input.
///
//===----------------------------------------------------------------------===//

#include "ast/Serialize.h"

#include "ast/AlphaEquivalence.h"
#include "ast/Printer.h"
#include "ast/Traversal.h"
#include "ast/Uniquify.h"
#include "core/AlphaHasher.h"
#include "gen/MLModels.h"
#include "gen/RandomExpr.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

using namespace hma;

namespace {

void expectRoundTrip(ExprContext &Ctx, const Expr *E) {
  std::string Bytes = serializeExpr(Ctx, E);
  ExprContext Fresh;
  Fresh.name("skew_the_intern_order");
  DeserializeResult R = deserializeExpr(Fresh, Bytes);
  ASSERT_TRUE(R.ok()) << R.Error;
  // Spelling-exact round trip: identical rendering, identical hash.
  EXPECT_EQ(printExpr(Ctx, E), printExpr(Fresh, R.E));
  EXPECT_EQ(E->treeSize(), R.E->treeSize());
  EXPECT_TRUE(alphaEquivalent(Ctx, E, Fresh, R.E));
}

} // namespace

TEST(Serialize, HandPickedRoundTrips) {
  ExprContext Ctx;
  const char *Sources[] = {
      "x",
      "0",
      "-9223372036854775808", // INT64_MIN survives zigzag
      "9223372036854775807",
      "(lam (x) (add x 7))",
      "(let (w (add v 7)) (mul (add a w) w))",
      "(f (lam (p q) (p (q zebra))) -42)",
  };
  for (const char *Src : Sources)
    expectRoundTrip(Ctx, parseT(Ctx, Src));
}

TEST(Serialize, RandomRoundTrips) {
  ExprContext Ctx;
  Rng R(64128);
  for (uint32_t Size : {1u, 2u, 17u, 100u, 1000u}) {
    expectRoundTrip(Ctx, genBalanced(Ctx, R, Size));
    expectRoundTrip(Ctx, genUnbalanced(Ctx, R, Size));
    expectRoundTrip(Ctx, genArithmetic(Ctx, R, Size));
  }
}

TEST(Serialize, DeepSpineIterative) {
  ExprContext Ctx;
  Rng R(3);
  expectRoundTrip(Ctx, genUnbalanced(Ctx, R, 200001));
}

TEST(Serialize, HashStableAcrossSerialization) {
  // The whole point: persist, reload elsewhere, same fingerprint.
  ExprContext A;
  const Expr *E = buildGmm(A);
  std::string Bytes = serializeExpr(A, E);
  ExprContext B;
  DeserializeResult R = deserializeExpr(B, Bytes);
  ASSERT_TRUE(R.ok()) << R.Error;
  Hash128 HA = AlphaHasher<Hash128>(A).hashRoot(E);
  Hash128 HB = AlphaHasher<Hash128>(B).hashRoot(R.E);
  EXPECT_EQ(HA, HB);
}

TEST(Serialize, FormatIsCompact) {
  ExprContext Ctx;
  const Expr *E = buildBert(Ctx, 2);
  std::string Bytes = serializeExpr(Ctx, E);
  // Sanity envelope: a handful of bytes per node (tag + small varints),
  // plus the name table.
  EXPECT_LT(Bytes.size(), size_t(E->treeSize()) * 8);
  EXPECT_GT(Bytes.size(), size_t(E->treeSize()));
}

TEST(Serialize, RejectsCorruptInput) {
  ExprContext Ctx;
  const Expr *E = parseT(Ctx, "(lam (x) (add x 7))");
  std::string Good = serializeExpr(Ctx, E);

  struct Case {
    const char *What;
    std::string Bytes;
  };
  std::vector<Case> Cases;
  Cases.push_back({"empty", ""});
  Cases.push_back({"bad magic", "XXXX"});
  Cases.push_back({"truncated header", Good.substr(0, 3)});
  Cases.push_back({"truncated name table", Good.substr(0, 6)});
  Cases.push_back({"truncated body", Good.substr(0, Good.size() - 1)});
  Cases.push_back({"trailing bytes", Good + "!"});
  std::string BadTag = Good;
  BadTag[BadTag.size() - 4] = 0x7F; // clobber a node tag
  Cases.push_back({"invalid tag", BadTag});

  for (const Case &C : Cases) {
    ExprContext Fresh;
    DeserializeResult R = deserializeExpr(Fresh, C.Bytes);
    EXPECT_FALSE(R.ok()) << C.What << " should be rejected";
    EXPECT_FALSE(R.Error.empty()) << C.What;
  }
}

TEST(Serialize, BadNameReferenceRejected) {
  // Hand-build: magic, 0 names, then a Var referencing name 5.
  std::string Bytes = "HMA1";
  Bytes.push_back(0); // zero names
  Bytes.push_back(0); // tag Var
  Bytes.push_back(5); // name id 5 (out of range)
  ExprContext Ctx;
  DeserializeResult R = deserializeExpr(Ctx, Bytes);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("name"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The decoder's distinct-binder flag
//===----------------------------------------------------------------------===//

TEST(SerializeDistinctBinders, FlagMatchesPropertyOnShadowHeavyTerms) {
  // Terms over 2-6 names with Lam and Let binders that repeat, shadow and
  // clash with free uses; a quarter are uniquified so both outcomes are
  // common. For serializer output the flag must equal the property: set
  // only when it holds (sound) and whenever it holds (complete). Blobs
  // are decoded both into a fresh context and into one shared context
  // that already interned every pool name (the batch-chunk situation).
  Rng R(2024);
  ExprContext Shared;
  uint64_t Distinct = 0, Shadowed = 0;
  for (unsigned I = 0; I != 20000; ++I) {
    ExprContext Ctx;
    const unsigned Pool = 2 + static_cast<unsigned>(R.below(5));
    const Expr *E =
        genShadowHeavy(Ctx, R, 1 + static_cast<unsigned>(R.below(24)), Pool);
    if (I % 4 == 0)
      E = uniquifyBinders(Ctx, E);
    const bool Has = hasDistinctBinders(Ctx, E);
    const std::string Bytes = serializeExpr(Ctx, E);
    for (ExprContext *Into : {static_cast<ExprContext *>(nullptr), &Shared}) {
      ExprContext Fresh;
      ExprContext &Out = Into ? *Into : Fresh;
      DeserializeResult D = deserializeExpr(Out, Bytes);
      ASSERT_TRUE(D.ok()) << D.Error;
      if (D.DistinctBinders) {
        ASSERT_TRUE(hasDistinctBinders(Out, D.E)) << printExpr(Out, D.E);
      }
      ASSERT_EQ(D.DistinctBinders, Has) << printExpr(Ctx, E);
    }
    (Has ? Distinct : Shadowed) += 1;
  }
  EXPECT_GT(Distinct, 5000u);
  EXPECT_GT(Shadowed, 5000u);
}

TEST(SerializeDistinctBinders, HandPickedShapes) {
  struct Case {
    const char *Src;
    bool Flag;
  };
  const Case Cases[] = {
      {"(lam (x y) (x y))", true},
      {"(f (lam (x) x))", true},
      {"(lam (x) (lam (x) x))", false},       // repeated binder
      {"(f (lam (x) x) (lam (x) x))", false}, // repeated in siblings
      {"(f x (lam (x) x))", false},           // free use, then binder
      {"(f (lam (x) x) x)", false},           // binder, then free use
      {"(let (x x) x)", false},               // use in its own bound
      {"(let (x 1) (f x))", true},
      {"(let (x (lam (y) y)) (x y))", false}, // y free after its scope
  };
  for (const Case &C : Cases) {
    ExprContext Ctx;
    DeserializeResult D =
        deserializeExpr(Ctx, serializeExpr(Ctx, parseT(Ctx, C.Src)));
    ASSERT_TRUE(D.ok()) << C.Src;
    EXPECT_EQ(D.DistinctBinders, C.Flag) << C.Src;
  }
}

TEST(SerializeDistinctBinders, RepeatedSpellingLeavesFlagUnset) {
  // Names {a, a}: both local ids intern to one name, so `lam 0 (var 1)`
  // decodes to (lam (a) a) -- distinct binders, yet the flag is unset:
  // unset means "unknown", and a repeated spelling is never proven.
  const std::string Blob = handBlob({"a", "a"}, {TagLam, 0, TagVar, 1});
  for (bool Preinterned : {false, true}) {
    ExprContext Ctx;
    if (Preinterned)
      Ctx.name("a");
    DeserializeResult D = deserializeExpr(Ctx, Blob);
    ASSERT_TRUE(D.ok()) << D.Error;
    EXPECT_EQ(printExpr(Ctx, D.E), printExpr(Ctx, parseT(Ctx, "(lam (a) a)")));
    EXPECT_TRUE(hasDistinctBinders(Ctx, D.E));
    EXPECT_FALSE(D.DistinctBinders);
  }
  // Distinct spellings that were already interned keep the flag.
  ExprContext Ctx;
  Ctx.name("b");
  Ctx.name("a");
  DeserializeResult D = deserializeExpr(
      Ctx, handBlob({"a", "b"}, {TagApp, TagLam, 0, TagVar, 0, TagLet, 1,
                                 TagVar, 0, TagVar, 1}));
  ASSERT_TRUE(D.ok()) << D.Error;
  EXPECT_FALSE(D.DistinctBinders) << "a is used free after its lam";
  D = deserializeExpr(Ctx, handBlob({"a", "b"}, {TagLam, 0, TagLet, 1, TagVar,
                                                 0, TagVar, 1}));
  ASSERT_TRUE(D.ok()) << D.Error;
  EXPECT_TRUE(D.DistinctBinders);
}
