//===- ast/Serialize.h - Compact expression serialization -------------------===//
///
/// \file
/// A compact, versioned binary format for expressions.
///
/// A library whose whole point is stable fingerprints needs a way to
/// persist expressions and reload them elsewhere with identical hashes
/// (compiler caches, distributed build systems, cHash-style rebuild
/// avoidance -- see Section 8's discussion of Dietrich et al.). The
/// format is a preorder byte stream:
///
///   header   "HMA1"
///   names    varint count, then length-prefixed spellings (local ids)
///   body     per node: 1-byte kind tag, then payload
///              Var:   varint local-name
///              Lam:   varint binder, body
///              App:   fun, arg
///              Let:   varint binder, bound, body
///              Const: zigzag-varint value
///
/// Deserialisation re-interns names, so ids differ across contexts while
/// spellings -- and therefore alpha-hashes -- are preserved (tested).
/// Two local ids with the same spelling intern to the same name (the
/// serializer never writes such a table, but the decoder accepts one).
/// Decoding is defensive: truncated or corrupt input yields an error,
/// never UB.
///
/// Readers that do not build an \ref Expr share the decoder's parsing
/// and its judgements through the `serial` helpers below:
///
///  - \ref serial::walkBody is the one preorder walk of a body: it
///    checks every byte, keeps the frame stack, counts subtree sizes and
///    hands each node to a visitor. The decoder, the alpha-hasher's byte
///    driver (core/AlphaHasher.h) and the index's exact verifier
///    (index/ShardStore.h) are all visitors of it.
///  - \ref serial::BinderProof is the one statement of the
///    distinct-binder proof behind \ref DeserializeResult::DistinctBinders.
///    The decoder reports it; the byte driver hashes a blob only when it
///    holds, so the two cannot disagree on which blobs are proven.
///  - \ref serial::firstSpellings merges repeated name-table spellings
///    exactly as the decoder's interning does.
///  - \ref serial::inSerializerForm tells whether a blob is exactly what
///    \ref serializeExpr writes for its term.
///
//===----------------------------------------------------------------------===//

#ifndef HMA_AST_SERIALIZE_H
#define HMA_AST_SERIALIZE_H

#include "ast/Expr.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hma {

/// Serialise \p Root to the binary format.
std::string serializeExpr(const ExprContext &Ctx, const Expr *Root);

/// Outcome of deserialisation.
struct DeserializeResult {
  const Expr *E = nullptr;
  std::string Error; ///< Empty on success.
  /// Set only when the decoded term provably has \ref hasDistinctBinders'
  /// property: no binder is repeated, no binder name occurs free, and no
  /// spelling is repeated in the name table (\ref serial::BinderProof).
  /// The decoder learns this on its preorder walk at no extra pass, so a
  /// set flag lets a caller skip \ref uniquifyBinders. The meaning is
  /// conservative: unset means "unknown", not "shadowed" (a repeated but
  /// unused spelling, for instance, leaves it unset). Every term the
  /// serializer writes from a distinct-binder expression decodes with the
  /// flag set (tested).
  bool DistinctBinders = false;

  bool ok() const { return E != nullptr; }
};

/// Reconstruct an expression from \p Bytes into \p Ctx.
DeserializeResult deserializeExpr(ExprContext &Ctx, std::string_view Bytes);

namespace serial {

/// The format's 4-byte header.
inline constexpr char Magic[4] = {'H', 'M', 'A', '1'};

/// Bounds-checked reader over serialized bytes. Shared by the decoder and
/// by every reader that walks the format without decoding (the index's
/// exact verifier), so all of them accept and reject exactly the same
/// bytes.
class Reader {
public:
  explicit Reader(std::string_view Bytes) : Bytes(Bytes) {}

  bool atEnd() const { return Pos == Bytes.size(); }
  size_t position() const { return Pos; }

  bool getByte(uint8_t &B) {
    if (Pos >= Bytes.size())
      return false;
    B = static_cast<uint8_t>(Bytes[Pos++]);
    return true;
  }

  bool getVarint(uint64_t &V) {
    V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      uint8_t B;
      if (!getByte(B))
        return false;
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return true;
    }
    return false; // over-long varint
  }

  bool getZigzag(int64_t &V) {
    uint64_t U;
    if (!getVarint(U))
      return false;
    V = static_cast<int64_t>((U >> 1) ^ (0 - (U & 1)));
    return true;
  }

  bool getBytes(size_t Len, std::string_view &Out) {
    if (Bytes.size() - Pos < Len)
      return false;
    Out = Bytes.substr(Pos, Len);
    Pos += Len;
    return true;
  }

  /// Read and check the magic.
  bool getMagic() {
    std::string_view Header;
    return getBytes(sizeof(Magic), Header) &&
           Header == std::string_view(Magic, sizeof(Magic));
  }

  /// Read the name-table count. A count above the input size is rejected
  /// (each entry takes at least one byte), and so is one that would not
  /// fit a 32-bit local id.
  bool getNameCount(uint64_t &NameCount) {
    return getVarint(NameCount) && NameCount <= Bytes.size() &&
           NameCount <= UINT32_MAX;
  }

  /// Read one length-prefixed name-table spelling.
  bool getSpelling(std::string_view &Spelling) {
    uint64_t Len;
    return getVarint(Len) && getBytes(Len, Spelling);
  }

private:
  std::string_view Bytes;
  size_t Pos = 0;
};

/// Read the name table that follows the magic: the count and every
/// spelling, into \p Spellings (cleared first; views into the input).
/// False on any malformed byte.
inline bool getNameTable(Reader &In, std::vector<std::string_view> &Spellings) {
  uint64_t NameCount;
  if (!In.getNameCount(NameCount))
    return false;
  Spellings.clear();
  for (uint64_t I = 0; I != NameCount; ++I) {
    std::string_view S;
    if (!In.getSpelling(S))
      return false;
    Spellings.push_back(S);
  }
  return true;
}

/// Map every name-table entry to the first entry with the same spelling,
/// as the decoder's interning merges them: afterwards Canon[I] == I
/// exactly for first occurrences. Returns true iff no spelling repeats.
/// \p Slots is scratch, reused across calls.
bool firstSpellings(const std::vector<std::string_view> &Spellings,
                    std::vector<uint32_t> &Canon, std::vector<uint32_t> &Slots);

/// True iff \p Bytes is exactly what \ref serializeExpr writes for the
/// term they decode to: well formed, every varint minimal, and a name
/// table that lists each name the body uses once, in first-use
/// (preorder) order, with no spelling repeated. One walk, no decode.
/// Index ingest stores a blob in this form as it came.
bool inSerializerForm(std::string_view Bytes);

/// The distinct-binder proof (paper Section 2.2), written once for every
/// reader that needs it. A blob is proven to have \ref
/// hasDistinctBinders' property when
///
///  - no spelling repeats in its name table, and
///  - on the preorder walk, every local id's binder state obeys these
///    rules: a binder must find its id Unseen; a Var may name an Unseen
///    or Free id (a free variable) or an id whose binder is in scope.
///    Anything else -- a repeated binder, a binder after a free use, a use
///    in a let's bound expression or after the scope closed -- refutes.
///
/// The proof is conservative: refuted means "unknown", not "shadowed" (a
/// repeated but unused spelling, for instance, refutes a term that has
/// the property). \ref walkBody drives the per-node rules; its callers
/// only \ref reset the proof and read \ref holds.
class BinderProof {
public:
  /// Start a proof over a name table; a repeated spelling refutes at once.
  void reset(const std::vector<std::string_view> &Spellings) {
    States.assign(Spellings.size(), Unseen);
    Holds = firstSpellings(Spellings, Canon, Slots);
  }

  bool holds() const { return Holds; }

  void use(uint32_t Id) {
    uint8_t &S = States[Id];
    if (S == Unseen)
      S = Free;
    else if (S == Pending || S == Closed)
      Holds = false;
  }
  void lamBinder(uint32_t Id) { bind(Id, InScope); }
  /// A let binder enters scope only once its bound expression is done.
  void letBinder(uint32_t Id) { bind(Id, Pending); }
  void letBody(uint32_t Id) { States[Id] = InScope; }
  void scopeEnd(uint32_t Id) { States[Id] = Closed; }

private:
  enum : uint8_t { Unseen, Free, Pending, InScope, Closed };

  void bind(uint32_t Id, uint8_t Next) {
    uint8_t &S = States[Id];
    if (S != Unseen)
      Holds = false;
    else
      S = Next;
  }

  std::vector<uint8_t> States;
  std::vector<uint32_t> Canon;
  std::vector<uint32_t> Slots;
  bool Holds = true;
};

/// An interior node the preorder walk has entered but not yet finished.
struct WalkFrame {
  ExprKind Kind;
  uint8_t Got;    ///< Children finished so far.
  uint32_t Id;    ///< Local id of a Lam or Let binder (0 for App).
  uint64_t Start; ///< Preorder index of the node (the root is 0).
};

/// What \ref walkBody returns when a visitor callback declined.
inline constexpr const char *VisitorDeclined = "declined by the reader";

/// Walk the body of a serialized expression -- everything after the name
/// table of \p NameCount entries -- in preorder, checking every byte.
/// \p V receives, in stream order:
///
///   bool var(uint32_t Id)          a Var leaf naming local id Id
///   bool constant(int64_t Value)   a Const leaf
///   bool open(const WalkFrame &F)  a Lam, App or Let, before its children
///   void letBody(const WalkFrame &F)  a Let's bound expression is done
///   bool close(const WalkFrame &F, uint64_t Size)
///                                  all of F's children are done; Size
///                                  counts the nodes of F's subtree
///
/// A callback returning false stops the walk. \p Proof, when non-null,
/// sees every binder and use before the visitor does. Returns nullptr
/// when the body is well formed and ends exactly at the end of the
/// input, \ref VisitorDeclined when a callback stopped the walk, and a
/// message naming the defect otherwise. Iterative: nesting depth is
/// bounded by \p Stack, not the call stack.
template <typename Visitor>
const char *walkBody(Reader &In, uint64_t NameCount,
                     std::vector<WalkFrame> &Stack, BinderProof *Proof,
                     Visitor &V) {
  Stack.clear();
  uint64_t Nodes = 0;
  for (;;) {
    uint8_t Tag;
    if (!In.getByte(Tag))
      return "truncated body";
    if (Tag > static_cast<uint8_t>(ExprKind::Const))
      return "invalid node tag";
    const ExprKind K = static_cast<ExprKind>(Tag);
    const uint64_t Pos = Nodes++;
    uint64_t Id = 0;
    if (K == ExprKind::Var || K == ExprKind::Lam || K == ExprKind::Let) {
      if (!In.getVarint(Id) || Id >= NameCount)
        return K == ExprKind::Var ? "bad name reference"
                                  : "bad binder reference";
    }
    switch (K) {
    case ExprKind::Var:
      if (Proof)
        Proof->use(static_cast<uint32_t>(Id));
      if (!V.var(static_cast<uint32_t>(Id)))
        return VisitorDeclined;
      break;
    case ExprKind::Const: {
      int64_t Value;
      if (!In.getZigzag(Value))
        return "truncated constant";
      if (!V.constant(Value))
        return VisitorDeclined;
      break;
    }
    case ExprKind::Lam:
    case ExprKind::App:
    case ExprKind::Let:
      if (Proof && K == ExprKind::Lam)
        Proof->lamBinder(static_cast<uint32_t>(Id));
      else if (Proof && K == ExprKind::Let)
        Proof->letBinder(static_cast<uint32_t>(Id));
      Stack.push_back({K, 0, static_cast<uint32_t>(Id), Pos});
      if (!V.open(Stack.back()))
        return VisitorDeclined;
      continue;
    }
    // A leaf is done: finish every frame it completes.
    for (;;) {
      if (Stack.empty())
        return In.atEnd() ? nullptr : "trailing bytes after expression";
      WalkFrame &Top = Stack.back();
      ++Top.Got;
      if (Top.Got == 1 && Top.Kind != ExprKind::Lam) {
        if (Top.Kind == ExprKind::Let) {
          if (Proof)
            Proof->letBody(Top.Id);
          V.letBody(Top);
        }
        break;
      }
      const WalkFrame F = Top;
      Stack.pop_back();
      if (Proof && F.Kind != ExprKind::App)
        Proof->scopeEnd(F.Id);
      if (!V.close(F, Nodes - F.Start))
        return VisitorDeclined;
    }
  }
}

/// The byte driver's admission check without the hash: true iff \p Bytes
/// is a well-formed blob on which \ref BinderProof holds -- exactly the
/// blobs `AlphaHasher::hashSerialized` hashes. The walk stops at the
/// first refuting node. Keeps its scratch across calls.
class BinderProver {
public:
  bool proves(std::string_view Bytes) {
    Reader In(Bytes);
    if (!In.getMagic() || !getNameTable(In, Spellings))
      return false;
    Proof.reset(Spellings);
    if (!Proof.holds())
      return false;
    struct UntilRefuted {
      const BinderProof &P;
      bool var(uint32_t) { return P.holds(); }
      bool constant(int64_t) { return true; }
      bool open(const WalkFrame &) { return P.holds(); }
      void letBody(const WalkFrame &) {}
      bool close(const WalkFrame &, uint64_t) { return true; }
    } V{Proof};
    return walkBody(In, Spellings.size(), Frames, &Proof, V) == nullptr &&
           Proof.holds();
  }

private:
  std::vector<std::string_view> Spellings;
  std::vector<WalkFrame> Frames;
  BinderProof Proof;
};

} // namespace serial

} // namespace hma

#endif // HMA_AST_SERIALIZE_H
