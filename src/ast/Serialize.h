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
//===----------------------------------------------------------------------===//

#ifndef HMA_AST_SERIALIZE_H
#define HMA_AST_SERIALIZE_H

#include "ast/Expr.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace hma {

/// Serialise \p Root to the binary format.
std::string serializeExpr(const ExprContext &Ctx, const Expr *Root);

/// Outcome of deserialisation.
struct DeserializeResult {
  const Expr *E = nullptr;
  std::string Error; ///< Empty on success.
  /// Set only when the decoded term provably has \ref hasDistinctBinders'
  /// property: no binder is repeated, no binder name occurs free, and no
  /// spelling is repeated in the name table. The decoder learns this on
  /// its preorder walk at no extra pass, so a set flag lets a caller skip
  /// \ref uniquifyBinders. The meaning is conservative: unset means
  /// "unknown", not "shadowed" (a repeated but unused spelling, for
  /// instance, leaves it unset). Every term the serializer writes from a
  /// distinct-binder expression decodes with the flag set (tested).
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
  /// (each entry takes at least one byte).
  bool getNameCount(uint64_t &NameCount) {
    return getVarint(NameCount) && NameCount <= Bytes.size();
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

} // namespace serial

} // namespace hma

#endif // HMA_AST_SERIALIZE_H
