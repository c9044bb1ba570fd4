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

//===----------------------------------------------------------------------===//
// Hostile bytes through every reader of the format
//===----------------------------------------------------------------------===//

TEST(SerializeHostileBytes, EveryReaderFailsCleanly) {
  // Every truncation, a trailing byte, out-of-range ids, a bad tag and
  // over-long varints: the decoder must reject each one, and so must the
  // alpha-hasher's byte driver -- returning no hash rather than reading
  // past the input (the ASan job runs this). The same hasher must then
  // still hash the good blob to the same value: a failed walk leaves no
  // stale scratch behind.
  ExprContext Ctx;
  const Expr *E = uniquifyBinders(
      Ctx, parseT(Ctx, "(let (k 7) (lam (x y) (f x (let (z -3) (y z)) k)))"));
  const std::string Good = serializeExpr(Ctx, E);
  ExprContext Boot;
  AlphaHasher<Hash128> Bytes(Boot);
  const std::optional<Hash128> Want = Bytes.hashSerialized(Good);
  ASSERT_TRUE(Want.has_value());
  ASSERT_EQ(*Want, AlphaHasher<Hash128>(Ctx).hashRoot(E));

  std::vector<std::pair<std::string, std::string>> Bad;
  for (size_t Len = 0; Len != Good.size(); ++Len)
    Bad.push_back({"truncated to " + std::to_string(Len), Good.substr(0, Len)});
  Bad.push_back({"trailing byte", Good + '\0'});
  Bad.push_back({"trailing node", Good + char(TagVar) + '\0'});
  Bad.push_back(
      {"out-of-range var id", handBlob({"x"}, {TagLam, 0, TagVar, 1})});
  Bad.push_back(
      {"out-of-range binder", handBlob({"x"}, {TagLam, 3, TagVar, 0})});
  Bad.push_back({"out-of-range let binder",
                 handBlob({"x"}, {TagLet, 1, TagConst, 2, TagVar, 0})});
  Bad.push_back({"bad tag", handBlob({"x"}, {TagLam, 0, 0x7F})});
  Bad.push_back({"bad root tag", handBlob({}, {0x05})});
  Bad.push_back({"over-long id varint",
                 handBlob({"x"}, {TagLam, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                  0x80, 0x80, 0x80, 0x80, TagVar, 0})});
  Bad.push_back({"over-long constant",
                 handBlob({}, {TagConst, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                               0xFF, 0xFF, 0xFF, 0xFF, 0x01})});
  Bad.push_back({"truncated constant", handBlob({}, {TagConst, 0x80})});
  Bad.push_back({"name count past the end", handBlob({}, {}) + "\x7F"});
  Bad.push_back({"spelling past the end", std::string("HMA1\x01\x05xy", 8)});
  Bad.push_back({"bad magic", "HMA2" + Good.substr(4)});
  Bad.push_back({"empty body", handBlob({"x"}, {})});
  for (const auto &[What, Blob] : Bad) {
    ExprContext D;
    EXPECT_FALSE(deserializeExpr(D, Blob).ok()) << What;
    EXPECT_FALSE(Bytes.hashSerialized(Blob).has_value()) << What;
    const std::optional<Hash128> Again = Bytes.hashSerialized(Good);
    ASSERT_TRUE(Again.has_value()) << What;
    EXPECT_EQ(*Again, *Want) << What;
  }
  EXPECT_EQ(Bytes.poolLiveNodes(), 0u);
}

TEST(SerializeHostileBytes, RandomCorruptionNeverMisreads) {
  // Random byte flips of random blobs: whatever the decoder makes of the
  // bytes, the byte driver hashes them iff the decoder proves distinct
  // binders, and then to the decoded term's hash.
  Rng R(31337);
  ExprContext Boot;
  AlphaHasher<Hash64> Bytes(Boot);
  uint64_t Decoded = 0, Rejected = 0;
  for (unsigned I = 0; I != 5000; ++I) {
    ExprContext Ctx;
    std::string Blob = serializeExpr(
        Ctx, genShadowHeavy(Ctx, R, 1 + static_cast<unsigned>(R.below(16)),
                            2 + static_cast<unsigned>(R.below(4))));
    for (unsigned Flips = 1 + static_cast<unsigned>(R.below(3)); Flips--;)
      Blob[R.below(Blob.size())] = static_cast<char>(R.below(256));
    ExprContext D;
    DeserializeResult Dec = deserializeExpr(D, Blob);
    const std::optional<Hash64> Got = Bytes.hashSerialized(Blob);
    ASSERT_EQ(Got.has_value(), Dec.ok() && Dec.DistinctBinders);
    if (Got) {
      ASSERT_EQ(*Got, AlphaHasher<Hash64>(D).hashRoot(Dec.E));
    }
    (Dec.ok() ? Decoded : Rejected) += 1;
  }
  EXPECT_GT(Decoded, 250u);
  EXPECT_GT(Rejected, 500u);
}

TEST(SerializeWalk, FirstSpellingsMergesRepeatsOntoTheFirstEntry) {
  std::vector<uint32_t> Canon, Slots;
  std::vector<std::string_view> Names = {"a", "b", "a", "", "b", "", "c"};
  EXPECT_FALSE(serial::firstSpellings(Names, Canon, Slots));
  EXPECT_EQ(Canon, (std::vector<uint32_t>{0, 1, 0, 3, 1, 3, 6}));
  Names = {"x", "y", "xy", "yx"};
  EXPECT_TRUE(serial::firstSpellings(Names, Canon, Slots));
  EXPECT_EQ(Canon, (std::vector<uint32_t>{0, 1, 2, 3}));
  Names = {};
  EXPECT_TRUE(serial::firstSpellings(Names, Canon, Slots));
  EXPECT_TRUE(Canon.empty());
}

TEST(SerializeWalk, InSerializerFormIffReserializingGivesTheSameBytes) {
  // The judgement must equal decode + serializeExpr + compare on every
  // blob: what the serializer writes, hand-made variants of it, and
  // random corruption of shadow-heavy terms.
  auto Reserializes = [](const std::string &Blob) {
    ExprContext D;
    DeserializeResult R = deserializeExpr(D, Blob);
    return R.ok() && serializeExpr(D, R.E) == Blob;
  };
  // "HMA1" followed by raw bytes (name count, table and body).
  auto Raw = [](const std::vector<uint8_t> &Bytes) {
    std::string Blob = "HMA1";
    for (uint8_t B : Bytes)
      Blob.push_back(static_cast<char>(B));
    return Blob;
  };
  const std::vector<std::pair<const char *, std::string>> Hand = {
      {"serializer output", handBlob({"x"}, {TagLam, 0, TagVar, 0})},
      {"no names", handBlob({}, {TagConst, 3})},
      {"table out of first-use order",
       handBlob({"y", "x"}, {TagLam, 1, TagApp, TagVar, 1, TagVar, 0})},
      {"unused entry", handBlob({"x", "u"}, {TagLam, 0, TagVar, 0})},
      {"repeated spelling",
       handBlob({"f", "f"}, {TagApp, TagVar, 0, TagVar, 1})},
      {"over-long id", handBlob({"x"}, {TagLam, 0x80, 0x00, TagVar, 0})},
      {"over-long constant", handBlob({}, {TagConst, 0x82, 0x00})},
      {"over-long name count", Raw({0x81, 0x00, 1, 'x', TagVar, 0})},
      {"over-long name length", Raw({1, 0x81, 0x00, 'x', TagVar, 0})},
      {"malformed", handBlob({"x"}, {TagLam, 0, TagVar, 1})},
      {"trailing byte", handBlob({"x"}, {TagVar, 0, 0})},
  };
  for (const auto &[What, Blob] : Hand)
    EXPECT_EQ(serial::inSerializerForm(Blob), Reserializes(Blob)) << What;
  EXPECT_TRUE(serial::inSerializerForm(Hand[0].second));
  EXPECT_FALSE(serial::inSerializerForm(Hand[2].second));

  Rng R(4242);
  uint64_t InForm = 0, OutOfForm = 0;
  for (unsigned I = 0; I != 5000; ++I) {
    ExprContext Ctx;
    std::string Blob = serializeExpr(
        Ctx, genShadowHeavy(Ctx, R, 1 + static_cast<unsigned>(R.below(16)),
                            2 + static_cast<unsigned>(R.below(4))));
    ASSERT_TRUE(serial::inSerializerForm(Blob));
    if (I % 2)
      Blob[R.below(Blob.size())] = static_cast<char>(R.below(256));
    const bool Want = Reserializes(Blob);
    ASSERT_EQ(serial::inSerializerForm(Blob), Want);
    (Want ? InForm : OutOfForm) += 1;
  }
  EXPECT_GE(InForm, 2500u);
  EXPECT_GT(OutOfForm, 1000u);
}

TEST(SerializeWalk, FramesCloseInPostorderWithSubtreeSizes) {
  // (let (k 7) (lam (x) (f x k))): every interior node closes after its
  // children, with its subtree's node count.
  ExprContext Ctx;
  const std::string Blob =
      serializeExpr(Ctx, parseT(Ctx, "(let (k 7) (lam (x) (f x k)))"));
  struct Recorder {
    std::string Events;
    bool var(uint32_t Id) {
      Events += "v" + std::to_string(Id) + " ";
      return true;
    }
    bool constant(int64_t V) {
      Events += "c" + std::to_string(V) + " ";
      return true;
    }
    bool open(const serial::WalkFrame &F) {
      Events += "(" + std::to_string(unsigned(F.Kind)) + " ";
      return true;
    }
    void letBody(const serial::WalkFrame &) { Events += "| "; }
    bool close(const serial::WalkFrame &F, uint64_t Size) {
      Events += ")" + std::to_string(F.Start) + ":" + std::to_string(Size) +
                " ";
      return true;
    }
  } V;
  serial::Reader In(Blob);
  std::vector<std::string_view> Spellings;
  ASSERT_TRUE(In.getMagic() && serial::getNameTable(In, Spellings));
  std::vector<serial::WalkFrame> Stack;
  serial::BinderProof Proof;
  Proof.reset(Spellings);
  EXPECT_EQ(serial::walkBody(In, Spellings.size(), Stack, &Proof, V), nullptr);
  EXPECT_TRUE(Proof.holds());
  // Names in first-use order: k=0, x=1, f=2. Kinds: Lam=1, App=2, Let=3.
  EXPECT_EQ(V.Events, "(3 c7 | (1 (2 (2 v2 v1 )4:3 v0 )3:5 )2:6 )0:8 ");
}
